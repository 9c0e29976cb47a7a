//! Tabular experiment output: printing, CSV, and markdown.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::io;
use std::path::Path;

/// One data series (a curve or a bar group) of an experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Series label (legend entry).
    pub label: String,
    /// `(x-label, value)` points; x is kept as a string so both numeric
    /// sweeps ("4096") and categorical axes ("mcf") fit.
    pub points: Vec<(String, f64)>,
}

impl Series {
    /// Builds a series from numeric x values.
    pub fn numeric(label: impl Into<String>, pts: impl IntoIterator<Item = (u64, f64)>) -> Self {
        Series {
            label: label.into(),
            points: pts.into_iter().map(|(x, y)| (x.to_string(), y)).collect(),
        }
    }

    /// Builds a series from categorical x values.
    pub fn categorical(
        label: impl Into<String>,
        pts: impl IntoIterator<Item = (String, f64)>,
    ) -> Self {
        Series {
            label: label.into(),
            points: pts.into_iter().collect(),
        }
    }
}

/// The output of one experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExpOutput {
    /// Experiment id ("fig5a").
    pub id: String,
    /// Human title (what the paper's caption says).
    pub title: String,
    /// Name of the x axis.
    pub x_axis: String,
    /// Name of the y axis / unit.
    pub y_axis: String,
    /// The series.
    pub series: Vec<Series>,
    /// Observations: the claims the figure supports, with the measured
    /// numbers backing them.
    pub notes: Vec<String>,
}

impl ExpOutput {
    /// Creates an empty output shell.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_axis: impl Into<String>,
        y_axis: impl Into<String>,
    ) -> Self {
        ExpOutput {
            id: id.into(),
            title: title.into(),
            x_axis: x_axis.into(),
            y_axis: y_axis.into(),
            series: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Adds a series.
    pub fn push_series(&mut self, s: Series) -> &mut Self {
        self.series.push(s);
        self
    }

    /// Adds a note.
    pub fn note(&mut self, n: impl Into<String>) -> &mut Self {
        self.notes.push(n.into());
        self
    }

    /// Writes `results/<id>.csv` with one column per series.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_csv(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut csv = String::new();
        csv.push_str(&self.x_axis.replace(',', ";"));
        for s in &self.series {
            csv.push(',');
            csv.push_str(&s.label.replace(',', ";"));
        }
        csv.push('\n');
        // Union of x labels in first-series order.
        let xs: Vec<&String> = self
            .series
            .first()
            .map(|s| s.points.iter().map(|(x, _)| x).collect())
            .unwrap_or_default();
        for x in xs {
            csv.push_str(x);
            for s in &self.series {
                csv.push(',');
                if let Some((_, y)) = s.points.iter().find(|(px, _)| px == x) {
                    csv.push_str(&format!("{y}"));
                }
            }
            csv.push('\n');
        }
        std::fs::write(dir.join(format!("{}.csv", self.id)), csv)
    }
}

impl fmt::Display for ExpOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} — {} ==", self.id, self.title)?;
        // Column widths.
        let xw = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|(x, _)| x.len()))
            .chain([self.x_axis.len()])
            .max()
            .unwrap_or(8)
            .max(6);
        write!(f, "{:>xw$}", self.x_axis)?;
        for s in &self.series {
            write!(f, " {:>12}", truncate(&s.label, 12))?;
        }
        writeln!(f)?;
        let xs: Vec<&String> = self
            .series
            .first()
            .map(|s| s.points.iter().map(|(x, _)| x).collect())
            .unwrap_or_default();
        for x in xs {
            write!(f, "{x:>xw$}")?;
            for s in &self.series {
                match s.points.iter().find(|(px, _)| px == x) {
                    Some((_, y)) => write!(f, " {:>12.3}", y)?,
                    None => write!(f, " {:>12}", "-")?,
                }
            }
            writeln!(f)?;
        }
        for n in &self.notes {
            writeln!(f, "  note: {n}")?;
        }
        Ok(())
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_owned()
    } else {
        s[..n].to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExpOutput {
        let mut o = ExpOutput::new("figX", "sample", "size", "ns");
        o.push_series(Series::numeric("a", [(64u64, 1.5), (128, 2.5)]));
        o.push_series(Series::numeric("b", [(64u64, 3.0), (128, 4.0)]));
        o.note("shape holds");
        o
    }

    #[test]
    fn display_renders_all_series() {
        let text = sample().to_string();
        assert!(text.contains("figX"));
        assert!(text.contains("1.500"));
        assert!(text.contains("4.000"));
        assert!(text.contains("shape holds"));
    }

    #[test]
    fn csv_round_trip() {
        let dir = std::env::temp_dir().join(format!("nvsim_bench_test_csv_{}", std::process::id()));
        sample().write_csv(&dir).unwrap();
        let body = std::fs::read_to_string(dir.join("figX.csv")).unwrap();
        assert!(body.starts_with("size,a,b\n"));
        assert!(body.contains("64,1.5,3\n"));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn categorical_series() {
        let s = Series::categorical("x", [("mcf".to_owned(), 0.5)]);
        assert_eq!(s.points[0].0, "mcf");
    }
}
