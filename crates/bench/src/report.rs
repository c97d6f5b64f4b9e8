//! Figure/table reporting: the structured output of each experiment,
//! printable as the rows the paper's figures plot, and serializable for
//! downstream plotting.

/// One plotted series.
#[derive(Clone, Debug)]
pub struct Series {
    /// Legend label (e.g. "DS_DA_UQ", "TCP 16K").
    pub label: String,
    /// `(x, y)` points.
    pub points: Vec<(f64, f64)>,
}

/// One reproduced figure.
#[derive(Clone, Debug)]
pub struct Figure {
    /// Paper figure id ("fig11", ...).
    pub id: String,
    /// Human title.
    pub title: String,
    /// X axis meaning.
    pub x_label: String,
    /// Y axis meaning.
    pub y_label: String,
    /// The series.
    pub series: Vec<Series>,
}

impl Figure {
    /// Start an empty figure.
    pub fn new(id: &str, title: &str, x_label: &str, y_label: &str) -> Self {
        Figure {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Append a series.
    pub fn push(&mut self, label: impl Into<String>, points: Vec<(f64, f64)>) {
        self.series.push(Series {
            label: label.into(),
            points,
        });
    }

    /// Render as an aligned text table, one row per x value.
    pub fn to_table(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.0))
            .collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup();
        let _ = write!(out, "{:>14}", self.x_label);
        for s in &self.series {
            let _ = write!(out, "{:>14}", s.label);
        }
        let _ = writeln!(out, "    [{}]", self.y_label);
        for x in xs {
            let _ = write!(out, "{x:>14.0}");
            for s in &self.series {
                match s.points.iter().find(|p| p.0 == x) {
                    Some((_, y)) => {
                        let _ = write!(out, "{y:>14.2}");
                    }
                    None => {
                        let _ = write!(out, "{:>14}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Serialize as JSON (hand-rolled: the structure is trivial and the
    /// workspace deliberately avoids a JSON dependency).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let mut out = String::new();
        out.push_str(&format!(
            "{{\n  \"id\": \"{}\",\n  \"title\": \"{}\",\n  \"x_label\": \"{}\",\n  \"y_label\": \"{}\",\n  \"series\": [\n",
            esc(&self.id),
            esc(&self.title),
            esc(&self.x_label),
            esc(&self.y_label)
        ));
        for (i, s) in self.series.iter().enumerate() {
            let pts: Vec<String> = s
                .points
                .iter()
                .map(|(x, y)| format!("[{x}, {y}]"))
                .collect();
            out.push_str(&format!(
                "    {{\"label\": \"{}\", \"points\": [{}]}}{}\n",
                esc(&s.label),
                pts.join(", "),
                if i + 1 == self.series.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// The y value of `label` at `x`, if present.
    pub fn value(&self, label: &str, x: f64) -> Option<f64> {
        self.series
            .iter()
            .find(|s| s.label == label)?
            .points
            .iter()
            .find(|p| p.0 == x)
            .map(|p| p.1)
    }
}

/// Render figures as one JSON array of their [`Figure::to_json`] bodies:
/// what `figures --json` writes, and the text of the committed quick-profile
/// golden (`crates/bench/tests/figures.quick.json`).
pub fn figures_json(figures: &[Figure]) -> String {
    let bodies: Vec<String> = figures
        .iter()
        .map(|f| f.to_json().trim_end().to_string())
        .collect();
    format!("[\n{}\n]\n", bodies.join(",\n"))
}

/// Run sweep points in parallel OS threads (each point owns its
/// deterministic simulation) and return results in input order.
pub fn parallel_sweep<X, Y, F>(points: &[X], f: F) -> Vec<Y>
where
    X: Clone + Send + Sync,
    Y: Send,
    F: Fn(&X) -> Y + Send + Sync,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = points.iter().map(|p| scope.spawn(|| f(p))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_rows() {
        let mut fig = Figure::new("figX", "demo", "size", "us");
        fig.push("a", vec![(4.0, 1.5), (16.0, 2.5)]);
        fig.push("b", vec![(4.0, 3.0)]);
        let t = fig.to_table();
        assert!(t.contains("figX"));
        assert!(t.contains("1.50"));
        assert!(t.contains("3.00"));
        assert!(t.lines().count() >= 4);
        assert_eq!(fig.value("a", 16.0), Some(2.5));
        assert_eq!(fig.value("b", 16.0), None);
    }

    #[test]
    fn parallel_sweep_preserves_order() {
        let xs = vec![1u32, 2, 3, 4, 5, 6, 7, 8];
        let ys = parallel_sweep(&xs, |x| x * 10);
        assert_eq!(ys, vec![10, 20, 30, 40, 50, 60, 70, 80]);
    }
}
