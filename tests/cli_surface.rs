//! The `lof` command-line surface as users meet it: every `lof …` command
//! line the README shows parses, and the generated help lists each flag
//! row once in the section of every mode that accepts it.

use lof_cli::{parse_command, usage, Mode, FLAGS};

/// The arguments of every `lof` invocation inside the README's `sh`
/// fences: continuation lines joined, each pipeline stage taken on its
/// own, and each cut at its first redirection or `&`. `cargo run ... -p
/// lof-cli -- ARGS` counts as `lof ARGS`.
fn readme_invocations() -> Vec<Vec<String>> {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md is readable");
    let mut fenced = String::new();
    let mut in_sh = false;
    for line in readme.lines() {
        match line.trim() {
            "```sh" => in_sh = true,
            "```" => in_sh = false,
            _ if in_sh && !line.trim_start().starts_with('#') => {
                fenced.push_str(line);
                fenced.push('\n');
            }
            _ => {}
        }
    }
    let mut found = Vec::new();
    for command in fenced.replace("\\\n", " ").lines() {
        for stage in command.split('|') {
            let words: Vec<&str> =
                stage.split_whitespace().take_while(|w| !w.contains(['&', '<', '>'])).collect();
            let args = match words.as_slice() {
                ["lof", args @ ..] => args,
                ["cargo", "run", rest @ ..] if rest.contains(&"lof-cli") => {
                    let dashes = rest.iter().position(|w| *w == "--").expect("cargo run -- ARGS");
                    &rest[dashes + 1..]
                }
                _ => continue,
            };
            found.push(args.iter().map(|w| (*w).to_owned()).collect());
        }
    }
    found
}

#[test]
fn every_readme_command_line_parses() {
    let invocations = readme_invocations();
    // Batch (twice, once via cargo run), topn, ingest (twice), stream
    // (twice) and serve (twice) appear in the README today.
    assert!(invocations.len() >= 10, "found only {invocations:?}");
    for mode in Mode::ALL {
        let shown = invocations.iter().any(|args| match (mode.word(), args.first()) {
            (Some(word), Some(first)) => first == word,
            (None, Some(first)) => first.starts_with("--"),
            (_, None) => false,
        });
        assert!(shown, "the README shows no command line for '{}'", mode.heading());
    }
    for args in &invocations {
        if let Err(e) = parse_command(args) {
            panic!("README command `lof {}` does not parse: {e}", args.join(" "));
        }
    }
}

#[test]
fn usage_lists_every_row_once_under_each_of_its_modes() {
    let words = |text: &str| text.split_whitespace().collect::<Vec<_>>().join(" ");
    let usage = usage();
    for mode in Mode::ALL {
        let heading = mode.heading();
        let section: Vec<&str> = usage
            .lines()
            .skip_while(|line| *line != heading)
            .skip(1)
            .take_while(|line| !line.is_empty())
            .collect();
        assert!(!section.is_empty(), "usage has no '{heading}' section");
        // Help wraps, so compare word sequences: a row is its flag, value
        // placeholder and help, and two rows of one flag differ in help.
        let section = words(&section.join(" "));
        for flag in FLAGS {
            let row = words(&format!("{} {} {}", flag.name, flag.value, flag.help));
            let want = usize::from(flag.modes.contains(&mode));
            assert_eq!(section.matches(&row).count(), want, "'{row}' under '{heading}'");
        }
    }
}
