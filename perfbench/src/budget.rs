//! The per-layer ns/symbol budget: measured layer rows plus the
//! unattributed residual, checked against the untraced end-to-end cost.

/// One budget row, in nanoseconds per symbol.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Layer name.
    pub name: &'static str,
    /// Cost per symbol.
    pub ns_per_sym: f64,
}

/// A budget: a measured total split into attributed rows and a
/// residual row holding whatever the rows do not explain.
#[derive(Debug, Clone, PartialEq)]
pub struct Budget {
    /// Attributed rows, residual excluded.
    pub rows: Vec<Row>,
    /// Name of the residual row.
    pub residual_name: &'static str,
    /// `total − Σ rows` (negative when the rows over-explain).
    pub residual_ns: f64,
    /// The total the rows and residual add up to.
    pub total_ns: f64,
}

impl Budget {
    /// Splits `total_ns` into `rows` plus a residual named
    /// `residual_name`.
    #[must_use]
    pub fn new(total_ns: f64, rows: Vec<Row>, residual_name: &'static str) -> Self {
        let attributed: f64 = rows.iter().map(|r| r.ns_per_sym).sum();
        Budget {
            rows,
            residual_name,
            residual_ns: total_ns - attributed,
            total_ns,
        }
    }

    /// Rows plus residual; equals `total_ns` by construction.
    #[must_use]
    pub fn sum_ns(&self) -> f64 {
        self.rows.iter().map(|r| r.ns_per_sym).sum::<f64>() + self.residual_ns
    }

    /// How much of a reference per-symbol cost (the untraced run's)
    /// the budget accounts for: `sum / reference`.
    #[must_use]
    pub fn coverage_of(&self, reference_ns: f64) -> f64 {
        self.sum_ns() / reference_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residual_is_total_minus_rows() {
        let b = Budget::new(
            1000.0,
            vec![
                Row {
                    name: "codec",
                    ns_per_sym: 400.0,
                },
                Row {
                    name: "wire",
                    ns_per_sym: 100.0,
                },
                Row {
                    name: "reassembly",
                    ns_per_sym: 150.0,
                },
            ],
            "engine.residual",
        );
        assert_eq!(b.residual_ns, 350.0);
        assert_eq!(b.sum_ns(), 1000.0);
        assert!((b.coverage_of(950.0) - 1000.0 / 950.0).abs() < 1e-12);
    }

    #[test]
    fn over_explained_total_gives_negative_residual() {
        let b = Budget::new(
            100.0,
            vec![Row {
                name: "a",
                ns_per_sym: 130.0,
            }],
            "rest",
        );
        assert_eq!(b.residual_ns, -30.0);
        assert_eq!(b.sum_ns(), 100.0);
    }

    #[test]
    fn empty_rows_leave_everything_residual() {
        let b = Budget::new(42.0, Vec::new(), "rest");
        assert_eq!(b.residual_ns, 42.0);
        assert_eq!(b.coverage_of(42.0), 1.0);
    }
}
