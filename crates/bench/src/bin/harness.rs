//! Experiment harness: prints the tables of README § "Experiment tables".
//!
//! ```text
//! cargo run -p mdst-bench --release --bin harness -- all
//! cargo run -p mdst-bench --release --bin harness -- e1 e6
//! ```

use mdst_bench::all_experiments;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let registry = all_experiments();
    let selected: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        registry.iter().map(|(id, _)| *id).collect()
    } else {
        args.iter().map(String::as_str).collect()
    };
    let mut unknown = Vec::new();
    for id in &selected {
        match registry.iter().find(|(rid, _)| rid == id) {
            Some((_, run)) => {
                let table = run();
                println!("{}", table.render());
            }
            None => unknown.push(id.to_string()),
        }
    }
    if !unknown.is_empty() {
        eprintln!(
            "unknown experiment id(s): {} (known: {})",
            unknown.join(", "),
            registry
                .iter()
                .map(|(id, _)| *id)
                .collect::<Vec<_>>()
                .join(", ")
        );
        std::process::exit(1);
    }
}
