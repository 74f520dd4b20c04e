//! Section 6 "Fast-C" experiment: Fast-C required up to 30% fewer node
//! accesses than Greedy-C while computing similar-sized solutions (with a
//! larger share of independent objects).

use disc_core::verify::dependent_pairs;
use disc_core::{fast_c, greedy_c};
use disc_datasets::Workload;

use crate::scale::Scale;
use crate::table::{fmt_f64, Table};

fn radii(scale: Scale, w: Workload) -> Vec<f64> {
    let all = scale.radii(w);
    match scale {
        Scale::Full => all,
        Scale::Quick => vec![all[all.len() / 2], all[all.len() - 1]],
    }
}

/// Runs the experiment over all four workloads.
pub fn run(scale: Scale) -> Vec<Table> {
    Workload::ALL
        .iter()
        .map(|&w| {
            let data = scale.dataset(w);
            let tree = scale.tree(&data);
            let mut table = Table::new(
                format!("Greedy-C vs Fast-C ({})", w.name()),
                vec![
                    "radius".into(),
                    "G-C size".into(),
                    "Fast-C size".into(),
                    "G-C accesses".into(),
                    "Fast-C accesses".into(),
                    "savings %".into(),
                    "independent?".into(),
                ],
            );
            for r in radii(scale, w) {
                let slow = greedy_c(&tree, r);
                let fast = fast_c(&tree, r);
                let savings = 100.0 * (slow.node_accesses as f64 - fast.node_accesses as f64)
                    / slow.node_accesses as f64;
                // Independence share indicator: is the Fast-C solution an
                // independent set (it often is; Greedy-C's usually not).
                let indep = format!(
                    "G-C:{} Fast-C:{}",
                    dependent_pairs(&data, &slow.solution, r).is_empty(),
                    dependent_pairs(&data, &fast.solution, r).is_empty()
                );
                table.push_row(vec![
                    r.to_string(),
                    slow.size().to_string(),
                    fast.size().to_string(),
                    slow.node_accesses.to_string(),
                    fast.node_accesses.to_string(),
                    fmt_f64(savings),
                    indep,
                ]);
            }
            table
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn similar_sizes() {
        for t in run(Scale::Quick) {
            for row in &t.rows {
                let slow: usize = row[1].parse().unwrap();
                let fast: usize = row[2].parse().unwrap();
                assert!(
                    fast <= slow * 2 + 2,
                    "{}: Fast-C size {fast} vs G-C {slow}",
                    t.title
                );
            }
        }
    }

    #[test]
    fn fast_c_saves_at_the_larger_radius_on_clustered() {
        let tables = run(Scale::Quick);
        let clustered = &tables[1];
        let last = clustered.rows.last().unwrap();
        let savings: f64 = last[5].parse().unwrap();
        assert!(savings > 0.0, "expected savings, got {savings}%");
    }
}
