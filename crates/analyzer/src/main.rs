//! `morph-lint`: the MorphCache topology-lattice model check.
//!
//! ```text
//! morph-lint lattice [--json] [--slices N]
//! ```
//!
//! Exit status: 0 clean, 1 violations, 2 usage error.

use morph_analyzer::lattice::{Lattice, LatticeReport, ReducedLattice, ReducedReport};
use morph_metrics::bench::Json;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("lattice") => run_lattice(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            Ok(0)
        }
        Some(other) => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match code {
        Ok(code) => std::process::exit(code),
        Err(message) => {
            eprintln!("morph-lint: {message}");
            std::process::exit(2);
        }
    }
}

const USAGE: &str = "\
morph-lint: topology-lattice model check for the MorphCache workspace

USAGE:
    morph-lint lattice [--json] [--slices N] (alias: --cores N)
        Verify the reachable (L2, L3) topology lattice from the
        merge/split rules: valid buddy partitions, inclusion capacity,
        spanning-tree arbitration, reversibility. N defaults to 16 (the
        paper's CMP). Up to 16 slices the full enumeration and the
        symmetry-reduced canonical-form check both run and are
        cross-checked against each other; above 16 (64, 256, 1024) the
        symmetry-reduced check runs alone: exhaustive canonical BFS at
        the 16-slice base plus seam-decomposition, die-embedding and
        arbiter/bus acceptance checks at every doubling size.

Exit status: 0 clean, 1 violations, 2 usage error.
";

fn run_lattice(args: &[String]) -> Result<i32, String> {
    let mut json = false;
    let mut slices = 16usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--slices" | "--cores" => {
                let v = it.next().ok_or("--slices requires a number")?;
                slices = v
                    .parse()
                    .map_err(|e| format!("bad {arg} value {v:?}: {e}"))?;
            }
            other => return Err(format!("unknown lattice option {other:?}")),
        }
    }
    // Up to 16 slices both checks run and must agree exactly; above 16
    // the full enumeration is combinatorially impossible and the
    // symmetry-reduced check stands alone.
    let full = if slices <= 16 {
        Some(Lattice::new(slices)?.check())
    } else {
        None
    };
    let reduced = ReducedLattice::new(slices)?.check();
    let cross_ok = full.as_ref().is_none_or(|f| {
        f.holds()
            && reduced.expanded_states == f.reachable_states
            && reduced.expanded_l3_partitions == f.l3_partitions
    });
    let ok = reduced.holds() && cross_ok;
    if json {
        print!(
            "{}",
            lattice_json(slices, full.as_ref(), &reduced, ok).render()
        );
    } else {
        print_lattice(slices, full.as_ref(), &reduced, cross_ok, ok);
    }
    Ok(i32::from(!ok))
}

fn lattice_json(
    slices: usize,
    full: Option<&LatticeReport>,
    reduced: &ReducedReport,
    ok: bool,
) -> Json {
    let num = |x: u64| Json::Num(x as f64);
    let violations = reduced
        .violations
        .iter()
        .chain(full.iter().flat_map(|f| f.violations.iter()))
        .map(|v| Json::Str(v.to_string()))
        .collect();
    let full = match full {
        Some(f) => Json::Obj(vec![
            ("reachable_states".into(), num(f.reachable_states)),
            ("predicted_states".into(), num(f.predicted_states)),
            ("l3_partitions".into(), num(f.l3_partitions)),
            (
                "predicted_l3_partitions".into(),
                num(f.predicted_l3_partitions),
            ),
            ("transitions".into(), num(f.transitions)),
            ("forced_covers".into(), num(f.forced_covers)),
            ("holds".into(), Json::Bool(f.holds())),
        ]),
        None => Json::Null,
    };
    // The closed-form state count passes 2^53 at 64 slices, beyond what
    // a JSON number carries exactly, so it is a decimal string.
    let predicted_full = reduced
        .predicted_states_full
        .map_or(Json::Null, |p| Json::Str(p.to_string()));
    Json::Obj(vec![
        ("slices".into(), num(slices as u64)),
        ("full".into(), full),
        (
            "reduced".into(),
            Json::Obj(vec![
                ("base_slices".into(), num(reduced.base_slices as u64)),
                ("canonical_states".into(), num(reduced.canonical_states)),
                ("expanded_states".into(), num(reduced.expanded_states)),
                (
                    "predicted_base_states".into(),
                    num(reduced.predicted_base_states),
                ),
                (
                    "expanded_l3_partitions".into(),
                    num(reduced.expanded_l3_partitions),
                ),
                ("predicted_states_full".into(), predicted_full),
                ("transitions".into(), num(reduced.transitions)),
                ("forced_covers".into(), num(reduced.forced_covers)),
                ("seam_checks".into(), num(reduced.seam_checks)),
                ("embedding_checks".into(), num(reduced.embedding_checks)),
                ("acceptance_checks".into(), num(reduced.acceptance_checks)),
                ("holds".into(), Json::Bool(reduced.holds())),
            ]),
        ),
        ("holds".into(), Json::Bool(ok)),
        ("violations".into(), Json::Arr(violations)),
    ])
}

fn print_lattice(
    slices: usize,
    full: Option<&LatticeReport>,
    reduced: &ReducedReport,
    cross_ok: bool,
    ok: bool,
) {
    println!("topology lattice over {slices} slices:");
    if let Some(f) = full {
        println!(
            "  full enumeration:  {} (L2, L3) states (closed form: {}), \
             {} L3 partitions (closed form: {})",
            f.reachable_states, f.predicted_states, f.l3_partitions, f.predicted_l3_partitions
        );
        println!(
            "                     {} transitions ({} forced L3 covers)",
            f.transitions, f.forced_covers
        );
    }
    println!(
        "  symmetry-reduced:  {} canonical states at base {} expanding to {} \
         (closed form: {})",
        reduced.canonical_states,
        reduced.base_slices,
        reduced.expanded_states,
        reduced.predicted_base_states
    );
    println!(
        "                     {} transitions ({} forced L3 covers)",
        reduced.transitions, reduced.forced_covers
    );
    if reduced.slices > reduced.base_slices {
        println!(
            "                     {} seam, {} embedding, {} acceptance checks up to {} slices",
            reduced.seam_checks, reduced.embedding_checks, reduced.acceptance_checks, slices
        );
        match reduced.predicted_states_full {
            Some(p) => println!("                     full state space (closed form): {p}"),
            None => println!(
                "                     full state space (closed form): > u128 (not enumerable)"
            ),
        }
    }
    if full.is_some() {
        println!(
            "  cross-check:       {}",
            if cross_ok {
                "reduced totals match the full enumeration exactly"
            } else {
                "MISMATCH between reduced and full enumeration"
            }
        );
    }
    if ok {
        println!(
            "  all 4 invariants hold: buddy partitions, inclusion capacity,\n  \
             spanning-tree arbitration, reversibility to (1:1:{slices})"
        );
    } else {
        for v in reduced
            .violations
            .iter()
            .chain(full.iter().flat_map(|f| f.violations.iter()))
        {
            println!("  VIOLATION: {v}");
        }
    }
}
