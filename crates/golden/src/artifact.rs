//! The typed result model of the regeneration harness.
//!
//! An [`Artifact`] is a table with named, unit-annotated columns: the
//! canonical in-memory form of one reproduced paper artifact.  The CSV text
//! the `figures` binary prints and the `--json` machine-readable dump are
//! both *renderings* of this structure; the fidelity diff engine
//! ([`crate::diff`]) consumes it directly at full `f64` precision, so
//! display rounding never affects a verdict.

use std::fmt::Write as _;

use serde::Serialize;

/// One column of an artifact table.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Column {
    /// Column name as printed in the CSV header.
    pub name: String,
    /// Physical unit of the values, if any (e.g. `"byte/it"`, `"%"`).
    pub unit: Option<String>,
    /// Decimal places used by the CSV rendering of [`Cell::Num`] values.
    /// `None` for integer/text columns.
    pub precision: Option<usize>,
}

/// One cell of an artifact table.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Cell {
    /// Exact integer quantity (counts, byte bounds, rank numbers).
    Int(i64),
    /// Measured/modelled floating-point quantity.
    Num(f64),
    /// Label (loop names, function names, on/off switches).
    Text(String),
    /// No value (e.g. a sweep that was not run for this configuration).
    Empty,
}

impl Cell {
    /// Numeric view of the cell, if it has one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Cell::Int(i) => Some(*i as f64),
            Cell::Num(x) => Some(*x),
            Cell::Text(_) | Cell::Empty => None,
        }
    }

    /// Text view of the cell, if it is a label.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Cell::Text(t) => Some(t),
            _ => None,
        }
    }
}

impl From<i64> for Cell {
    fn from(v: i64) -> Self {
        Cell::Int(v)
    }
}

impl From<usize> for Cell {
    fn from(v: usize) -> Self {
        Cell::Int(v as i64)
    }
}

impl From<u32> for Cell {
    fn from(v: u32) -> Self {
        Cell::Int(v as i64)
    }
}

impl From<f64> for Cell {
    fn from(v: f64) -> Self {
        Cell::Num(v)
    }
}

impl From<&str> for Cell {
    fn from(v: &str) -> Self {
        Cell::Text(v.to_string())
    }
}

impl From<String> for Cell {
    fn from(v: String) -> Self {
        Cell::Text(v)
    }
}

/// A typed experiment result: one reproduced paper artifact.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Artifact {
    /// Experiment identifier (`"fig5"`, `"table1"`, …).
    pub id: String,
    /// Human-readable description of what the artifact reproduces.
    pub title: String,
    /// Column descriptors; every row has exactly this many cells.
    pub columns: Vec<Column>,
    /// Data rows.
    pub rows: Vec<Vec<Cell>>,
    /// Free-form annotations rendered as trailing `# …` comment lines
    /// (e.g. Fig. 7's improvement summary).
    pub notes: Vec<String>,
}

impl Artifact {
    /// Start an artifact with no columns or rows.
    pub fn new(id: &str, title: &str) -> Self {
        Self {
            id: id.to_string(),
            title: title.to_string(),
            columns: Vec::new(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Add an integer/text column (no decimal formatting).
    pub fn column(mut self, name: &str, unit: Option<&str>) -> Self {
        self.columns.push(Column {
            name: name.to_string(),
            unit: unit.map(str::to_string),
            precision: None,
        });
        self
    }

    /// Add a floating-point column rendered with `precision` decimals.
    pub fn num_column(mut self, name: &str, unit: Option<&str>, precision: usize) -> Self {
        self.columns.push(Column {
            name: name.to_string(),
            unit: unit.map(str::to_string),
            precision: Some(precision),
        });
        self
    }

    /// Append a data row.
    ///
    /// # Panics
    /// Panics if the row arity does not match the column count.
    pub fn push_row(&mut self, row: Vec<Cell>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "artifact {}: row has {} cells, expected {}",
            self.id,
            row.len(),
            self.columns.len()
        );
        self.rows.push(row);
    }

    /// Append a trailing annotation line.
    pub fn push_note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Index of the column called `name`.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Scale every [`Cell::Num`] value by `factor`.  Used to validate the
    /// fidelity harness: a perturbed artifact must fail its golden check.
    pub fn perturb(&mut self, factor: f64) {
        for row in &mut self.rows {
            for cell in row {
                if let Cell::Num(x) = cell {
                    *x *= factor;
                }
            }
        }
    }

    /// Render the artifact as the CSV-like text the `figures` binary prints:
    /// a header line of column names, one comma-separated line per row, and
    /// the notes as trailing `# …` comments.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        self.write_csv(&mut out);
        out
    }

    /// Append the [`to_csv`](Self::to_csv) rendering to `out`, for callers
    /// that frame it (a block header, a reply) in one buffer.
    pub fn write_csv(&self, out: &mut String) {
        // Eight bytes a cell is a low guess that at worst costs a regrowth.
        out.reserve((self.rows.len() + 1) * self.columns.len() * 8);
        for (i, col) in self.columns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&col.name);
        }
        out.push('\n');
        for row in &self.rows {
            for (i, (cell, col)) in row.iter().zip(&self.columns).enumerate() {
                if i > 0 {
                    out.push(',');
                }
                match cell {
                    // Writing into a `String` cannot fail.
                    Cell::Int(v) => {
                        let _ = write!(out, "{v}");
                    }
                    Cell::Num(x) => write_fixed(out, *x, col.precision.unwrap_or(3)),
                    Cell::Text(t) => out.push_str(t),
                    Cell::Empty => {}
                }
            }
            out.push('\n');
        }
        for note in &self.notes {
            let _ = writeln!(out, "# {note}");
        }
    }

    /// Render the artifact as a self-contained JSON object with full
    /// `f64` precision (non-finite numbers become `null`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"id\":{},\"title\":{},\"columns\":[",
            json_string(&self.id),
            json_string(&self.title)
        ));
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"unit\":{},\"precision\":{}}}",
                json_string(&c.name),
                c.unit.as_deref().map_or("null".into(), json_string),
                c.precision.map_or("null".to_string(), |p| p.to_string())
            ));
        }
        out.push_str("],\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            for (j, cell) in row.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                match cell {
                    Cell::Int(v) => out.push_str(&v.to_string()),
                    Cell::Num(x) => out.push_str(&json_number(*x)),
                    Cell::Text(t) => out.push_str(&json_string(t)),
                    Cell::Empty => out.push_str("null"),
                }
            }
            out.push(']');
        }
        out.push_str("],\"notes\":[");
        for (i, n) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_string(n));
        }
        out.push_str("]}");
        out
    }
}

/// `10^p` for every precision the exact cell writer takes.
const POW10: [u64; 10] = [
    1,
    10,
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
];

/// `x × 10^precision` as an integer, rounded half-to-even on the exact
/// binary value of `x` — the rounding `core::fmt` applies to `{:.*}`.
/// `None` for what the integer path does not take: a set sign bit
/// (negatives and `-0.0`, which print a sign), NaN and the infinities, a
/// precision above 9 and results beyond `u64`.
fn round_scaled(x: f64, precision: usize) -> Option<u64> {
    let pow10 = *POW10.get(precision)?;
    let bits = x.to_bits();
    // Sign and biased exponent in one field: a set sign bit reads ≥ 0x800.
    let biased = (bits >> 52) as i32;
    if biased >= 0x7ff {
        return None;
    }
    let fraction = bits & ((1 << 52) - 1);
    // x = mantissa × 2^exponent, exactly.
    let (mantissa, exponent) = match biased {
        0 => (fraction, -1074),
        _ => (fraction | 1 << 52, biased - 1075),
    };
    // Below 2^53 × 2^30: the product is exact in 128 bits.
    let scaled = u128::from(mantissa) * u128::from(pow10);
    let rounded = if exponent >= 0 {
        if exponent > 44 {
            return None; // the shift could leave 128 bits
        }
        scaled << exponent
    } else {
        let shift = exponent.unsigned_abs();
        if shift >= u128::BITS {
            0 // scaled < 2^83 is far below half a unit
        } else {
            let quotient = scaled >> shift;
            let remainder = scaled - (quotient << shift);
            let half = 1u128 << (shift - 1);
            let up = remainder > half || (remainder == half && quotient & 1 == 1);
            quotient + u128::from(up)
        }
    };
    u64::try_from(rounded).ok()
}

/// Append `x` with `precision` decimals: the bytes of
/// `write!(out, "{:.*}", precision, x)`, which is also the path of every
/// value [`round_scaled`] does not take.  `core::fmt` formats to a fixed
/// precision with exact big-number arithmetic whenever its fast path
/// cannot prove the last digit (330–430 ns for a `{:.4}` cell); here the
/// digits are those of one correctly rounded integer.
fn write_fixed(out: &mut String, x: f64, precision: usize) {
    let Some(mut n) = round_scaled(x, precision) else {
        // Writing into a `String` cannot fail.
        let _ = write!(out, "{x:.precision$}");
        return;
    };
    // Right to left: the decimals, the point, the integer digits (at least
    // one).  A u64 has at most 20 digits.
    let mut buf = [0u8; 21];
    let mut at = buf.len();
    for _ in 0..precision {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
    }
    if precision > 0 {
        at -= 1;
        buf[at] = b'.';
    }
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits and a point"));
}

/// JSON string literal with the mandatory escapes.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number literal; non-finite values become `null`.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        // Rust's `Display` for f64 is shortest-roundtrip and always contains
        // a digit, which is valid JSON.
        format!("{x}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Artifact {
        let mut a = Artifact::new("figx", "sample artifact")
            .column("name", None)
            .column("cores", None)
            .num_column("ratio", Some("byte/byte"), 3);
        a.push_row(vec!["st1".into(), 4usize.into(), 1.25f64.into()]);
        a.push_row(vec!["st2".into(), 8usize.into(), Cell::Empty]);
        a.push_note("a note".to_string());
        a
    }

    #[test]
    fn csv_rendering_matches_layout() {
        let csv = sample().to_csv();
        assert_eq!(csv, "name,cores,ratio\nst1,4,1.250\nst2,8,\n# a note\n");
    }

    #[test]
    fn write_csv_appends_what_to_csv_returns() {
        let mut out = String::from("==== figx ====\n");
        sample().write_csv(&mut out);
        assert_eq!(out, format!("==== figx ====\n{}", sample().to_csv()));
    }

    #[test]
    fn fixed_cells_equal_std_formatting() {
        let values = [
            0.0,
            -0.0,
            5e-324, // the smallest subnormal
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            1e-7,
            0.05,
            0.125, // ties: to even, on the exact binary value
            0.375,
            0.5,
            1.5,
            2.5,
            0.045, // not a tie in binary
            1.005,
            8.345,
            0.9999999995,
            999.9995,
            12345.678,
            9007199254740992.0, // 2^53
            18446744073709551615.0,
            1e22,
            3.0e29, // beyond the 128-bit shift
            f64::MAX,
            -1.5,
            -0.04,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for x in values {
            // Precisions above 9 are std's as well.
            for precision in 0..=12 {
                let mut cell = String::new();
                write_fixed(&mut cell, x, precision);
                assert_eq!(cell, format!("{x:.precision$}"), "{x:e} at {precision}");
            }
        }
        // The values above that the integer path is meant to take, it takes.
        assert_eq!(round_scaled(2.5, 0), Some(2));
        assert_eq!(round_scaled(0.375, 2), Some(38));
        assert_eq!(round_scaled(5e-324, 9), Some(0));
        assert_eq!(
            round_scaled(9007199254740992.0, 3),
            Some(9007199254740992000)
        );
        for declined in [-0.0, -1.5, f64::NAN, f64::INFINITY, 1e22, f64::MAX] {
            assert_eq!(round_scaled(declined, 3), None, "{declined:e}");
        }
        assert_eq!(round_scaled(1.5, 10), None);
    }

    #[test]
    fn json_rendering_is_wellformed() {
        let json = sample().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"id\":\"figx\""));
        assert!(json.contains("\"unit\":\"byte/byte\""));
        assert!(json.contains("[\"st1\",4,1.25]"));
        assert!(json.contains("null"));
    }

    #[test]
    fn json_escapes_special_characters() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(1.5), "1.5");
    }

    #[test]
    fn perturb_scales_only_num_cells() {
        let mut a = sample();
        a.perturb(2.0);
        assert_eq!(a.rows[0][2], Cell::Num(2.5));
        assert_eq!(a.rows[0][1], Cell::Int(4));
        assert_eq!(a.rows[0][0], Cell::Text("st1".into()));
    }

    #[test]
    #[should_panic(expected = "row has 1 cells")]
    fn arity_mismatch_panics() {
        let mut a = sample();
        a.push_row(vec![1.0f64.into()]);
    }

    #[test]
    fn cell_views() {
        assert_eq!(Cell::Int(3).as_f64(), Some(3.0));
        assert_eq!(Cell::Num(1.5).as_f64(), Some(1.5));
        assert_eq!(Cell::Text("x".into()).as_f64(), None);
        assert_eq!(Cell::Empty.as_f64(), None);
        assert_eq!(Cell::Text("x".into()).as_text(), Some("x"));
        assert_eq!(Cell::Int(3).as_text(), None);
    }

    #[test]
    fn column_index_lookup() {
        let a = sample();
        assert_eq!(a.column_index("ratio"), Some(2));
        assert_eq!(a.column_index("missing"), None);
    }
}
