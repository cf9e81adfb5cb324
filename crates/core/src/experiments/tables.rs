//! Table 1 (application-classification filters) and Table 2 (hypergiants).

use crate::context::Context;
use crate::report::TextTable;
use lockdown_analysis::appclass::PaperClass;
use lockdown_topology::hypergiants::HYPERGIANTS;

/// One Table 1 row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table1Row {
    /// The application class.
    pub class: PaperClass,
    /// Number of filters.
    pub filters: usize,
    /// Number of distinct ASNs referenced.
    pub asns: usize,
    /// Number of distinct transport ports referenced.
    pub ports: usize,
}

/// Table 1 result.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// Rows in the paper's order.
    pub rows: Vec<Table1Row>,
    /// Total filter combinations ("more than 50").
    pub total_filters: usize,
}

/// Regenerate Table 1 from the classifier's filter inventory.
pub fn table1(ctx: &Context) -> Table1 {
    let classifier = &ctx.classifier;
    let rows = PaperClass::ALL
        .iter()
        .map(|&class| {
            let (filters, asns, ports) = classifier.table1_row(class);
            Table1Row {
                class,
                filters,
                asns,
                ports,
            }
        })
        .collect();
    Table1 {
        rows,
        total_filters: classifier.total_filters(),
    }
}

impl Table1 {
    /// The paper's published counts per class: (filters, ASNs, ports).
    pub(crate) fn paper_counts(class: PaperClass) -> (usize, usize, usize) {
        match class {
            PaperClass::WebConf => (7, 1, 6),
            PaperClass::Vod => (5, 5, 0),
            PaperClass::Gaming => (8, 5, 57),
            PaperClass::SocialMedia => (4, 4, 1),
            PaperClass::Messaging => (3, 0, 5),
            PaperClass::Email => (1, 0, 10),
            PaperClass::Educational => (9, 9, 0),
            PaperClass::CollabWorking => (8, 2, 9),
            PaperClass::Cdn => (8, 8, 0),
        }
    }

    /// Render with a paper-vs-ours comparison.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(["application class", "filters", "ASNs", "ports", "paper"]);
        for r in &self.rows {
            let p = Self::paper_counts(r.class);
            t.row([
                r.class.label().to_string(),
                r.filters.to_string(),
                r.asns.to_string(),
                r.ports.to_string(),
                format!("{}/{}/{}", p.0, p.1, p.2),
            ]);
        }
        format!(
            "Table 1 — classification filters ({} combinations total)\n{}",
            self.total_filters,
            t.render()
        )
    }
}

/// Render Table 2 (the hypergiant list, verbatim from the paper).
pub fn table2() -> String {
    let mut t = TextTable::new(["Org. Name", "ASN"]);
    for hg in HYPERGIANTS {
        t.row([hg.name.to_string(), hg.asn.0.to_string()]);
    }
    format!("Table 2 — hypergiant ASes\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Fidelity;

    #[test]
    fn table1_matches_paper_exactly() {
        let ctx = Context::new(Fidelity::Test);
        let t = table1(&ctx);
        for r in &t.rows {
            let paper = Table1::paper_counts(r.class);
            assert_eq!(
                (r.filters, r.asns, r.ports),
                paper,
                "{}: ours vs paper",
                r.class
            );
        }
        assert!(t.total_filters > 50);
    }

    #[test]
    fn table2_lists_fifteen() {
        let s = table2();
        assert!(s.contains("Google Inc."));
        assert!(s.contains("15169"));
        assert_eq!(s.lines().count(), 15 + 3);
    }

    #[test]
    fn table1_renders_comparison() {
        let ctx = Context::new(Fidelity::Test);
        let s = table1(&ctx).render();
        assert!(s.contains("8/5/57"), "gaming paper counts shown");
    }
}
