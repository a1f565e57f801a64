//! The paper-artifact binaries, run end to end at 2 cores × 300 memops:
//! each exits 0 (so none of its runs deadlocked, which `bench::run`
//! asserts), prints no NaN, and prints every row its table promises.

use std::process::{Command, Output};
use workloads::Benchmark;

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().unwrap()
}

/// Runs `bin` at `2 300`, which must exit 0 without a NaN; returns stdout.
fn run_small(bin: &str) -> String {
    let out = run(bin, &["2", "300"]);
    assert!(
        out.status.success(),
        "{bin} 2 300 exited {:?}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(!stdout.contains("NaN"), "{bin} printed a NaN:\n{stdout}");
    stdout
}

/// The rows of the table whose column header line starts with `header`:
/// the lines after it, up to the first blank line.
fn rows<'a>(text: &'a str, header: &str) -> Vec<&'a str> {
    text.lines()
        .skip_while(|l| !l.starts_with(header))
        .skip(1)
        .take_while(|l| !l.is_empty())
        .collect()
}

#[test]
fn fig11_prints_table3_fig11a_and_fig11b_for_every_benchmark() {
    let out = run_small(env!("CARGO_BIN_EXE_fig11"));
    let names: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
    let sections = [
        ("Table 3:", "Code"),
        ("Fig 11(a):", "benchmark"),
        ("Fig 11(b):", "benchmark"),
    ];
    let starts: Vec<usize> = sections
        .iter()
        .map(|(title, _)| {
            out.find(title)
                .unwrap_or_else(|| panic!("no {title} section"))
        })
        .collect();
    assert_eq!(starts[0], 0, "Table 3 comes first");
    for (i, (title, header)) in sections.iter().enumerate() {
        let section = &out[starts[i]..starts.get(i + 1).copied().unwrap_or(out.len())];
        if i + 1 < sections.len() {
            assert!(section.ends_with("\n\n"), "a blank line ends {title}");
        }
        let row_names: Vec<&str> = rows(section, header)
            .iter()
            .filter_map(|row| row.split_whitespace().next())
            .collect();
        assert_eq!(row_names, names, "{title} has one row per benchmark");
    }
}

#[test]
fn ablation_and_latency_bins_print_every_row() {
    for (bin, header, want) in [
        (env!("CARGO_BIN_EXE_intro_latency"), "config", 4),
        (env!("CARGO_BIN_EXE_bloom_ablation"), "size bytes", 18),
        (env!("CARGO_BIN_EXE_dirlock_ablation"), "benchmark", 8),
    ] {
        let out = run_small(bin);
        assert_eq!(rows(&out, header).len(), want, "{bin}:\n{out}");
    }
}

#[test]
fn a_zero_core_count_is_a_usage_error() {
    let out = run(env!("CARGO_BIN_EXE_fig11"), &["0", "10"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: fig11"));
}
