//! Pinned outputs: `benchmark/expected/digests.txt` holds the digest of
//! every deterministic output the workloads produce and the simulated
//! counts of the `cachesim` probes.  A run compares what it computes with
//! the file; only `harness bless` rewrites it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

pub const EXPECTED_FILE: &str = "benchmark/expected/digests.txt";

/// FNV-1a, 64 bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub struct Expected {
    entries: RefCell<BTreeMap<String, String>>,
    /// `bless`: record what is computed instead of comparing with it.
    recording: bool,
}

impl Expected {
    pub fn load() -> Result<Self, String> {
        let text = fs::read_to_string(EXPECTED_FILE)
            .map_err(|e| format!("{EXPECTED_FILE}: {e} (`harness bless` writes it)"))?;
        let entries = text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .map(|l| {
                l.split_once(' ')
                    .map(|(name, value)| (name.to_string(), value.trim().to_string()))
                    .ok_or_else(|| format!("{EXPECTED_FILE}: malformed line '{l}'"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Self {
            entries: RefCell::new(entries),
            recording: false,
        })
    }

    pub fn recording() -> Self {
        Self {
            entries: RefCell::new(BTreeMap::new()),
            recording: true,
        }
    }

    fn check(&self, name: &str, value: String) -> Result<(), String> {
        if self.recording {
            self.entries.borrow_mut().insert(name.to_string(), value);
            return Ok(());
        }
        match self.entries.borrow().get(name) {
            Some(pinned) if *pinned == value => Ok(()),
            Some(pinned) => Err(format!(
                "{name}: computed '{value}' but {EXPECTED_FILE} pins '{pinned}' — a model \
                 change must say so and re-bless (`benchmark/run.sh bless`)"
            )),
            None => Err(format!("{name}: no entry in {EXPECTED_FILE}")),
        }
    }

    /// Compare (or record) the digest and length of an output.
    pub fn check_bytes(&self, name: &str, bytes: &[u8]) -> Result<(), String> {
        self.check(name, format!("{:016x} {}", fnv1a(bytes), bytes.len()))
    }

    /// Compare (or record) a count that must repeat exactly.
    pub fn check_value(&self, name: &str, value: f64) -> Result<(), String> {
        self.check(name, format!("{value}"))
    }

    pub fn write(&self) -> Result<usize, String> {
        let entries = self.entries.borrow();
        let mut text = String::from(
            "# Pinned outputs of the benchmark workloads: `<name> <fnv1a-64> <bytes>` for\n\
             # outputs, `<name> <value>` for simulated counts.  Written by\n\
             # `benchmark/run.sh bless`; never edit by hand.\n",
        );
        for (name, value) in entries.iter() {
            text.push_str(&format!("{name} {value}\n"));
        }
        if let Some(dir) = Path::new(EXPECTED_FILE).parent() {
            fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
        fs::write(EXPECTED_FILE, text).map_err(|e| format!("{EXPECTED_FILE}: {e}"))?;
        Ok(entries.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn a_doctored_entry_is_caught() {
        let recorded = Expected::recording();
        recorded.check_bytes("x", b"payload").unwrap();
        recorded.check_value("n", 12.5).unwrap();
        let pinned = Expected {
            entries: RefCell::new(recorded.entries.borrow().clone()),
            recording: false,
        };
        assert!(pinned.check_bytes("x", b"payload").is_ok());
        assert!(pinned.check_value("n", 12.5).is_ok());
        assert!(pinned.check_bytes("x", b"payloae").is_err());
        assert!(pinned.check_value("n", 12.500001).is_err());
        assert!(pinned.check_bytes("missing", b"").is_err());
    }
}
