//! JSON decoding for the market types.
//!
//! The vendored `serde` stub only *serializes* (see `vendor/README.md`);
//! deserialization goes through untyped [`serde_json::Value`] documents.
//! This module owns the Value→type decoders for every market type a
//! snapshot contains, so serving layers and tools don't each reimplement
//! the field walking (and silently drift when a field is added).

use crate::ledger::{DayRecord, Ledger};
use crate::proposal::Proposal;
use crate::sim::LockState;
use serde_json::Value;
use std::fmt;

/// A structural decoding failure: which field, and what was wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Dotted path of the offending field.
    pub field: String,
    /// What the decoder expected there.
    pub expected: &'static str,
}

impl DecodeError {
    fn new(field: impl Into<String>, expected: &'static str) -> Self {
        Self {
            field: field.into(),
            expected,
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "field {:?}: expected {}", self.field, self.expected)
    }
}

impl std::error::Error for DecodeError {}

/// `v[field]` as an `f64`.
pub fn f64_field(v: &Value, field: &str) -> Result<f64, DecodeError> {
    v[field]
        .as_f64()
        .ok_or_else(|| DecodeError::new(field, "number"))
}

/// `v[field]` as a non-negative integer that fits the JSON float exactly.
pub fn u64_field(v: &Value, field: &str) -> Result<u64, DecodeError> {
    let n = f64_field(v, field)?;
    if n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53) {
        Ok(n as u64)
    } else {
        Err(DecodeError::new(field, "non-negative integer"))
    }
}

/// `v[field]` as a `u32`.
pub fn u32_field(v: &Value, field: &str) -> Result<u32, DecodeError> {
    let n = u64_field(v, field)?;
    u32::try_from(n).map_err(|_| DecodeError::new(field, "u32"))
}

/// `v[field]` as a `usize`.
pub fn usize_field(v: &Value, field: &str) -> Result<usize, DecodeError> {
    let n = u64_field(v, field)?;
    usize::try_from(n).map_err(|_| DecodeError::new(field, "usize"))
}

/// `v[field]` as an optional `u32`: absent or `null` decodes to `None`.
/// Records written before the field existed decode unchanged.
pub fn opt_u32_field(v: &Value, field: &str) -> Result<Option<u32>, DecodeError> {
    match &v[field] {
        Value::Null => Ok(None),
        _ => u32_field(v, field).map(Some),
    }
}

/// Decodes a [`Proposal`] from its serialized object form, refusing a
/// campaign no advertiser can hold: zero demand, a negative or non-finite
/// payment ([`mroam_core::Advertiser`]'s invariants), or zero duration days.
pub fn decode_proposal(v: &Value) -> Result<Proposal, DecodeError> {
    let demand = u64_field(v, "demand")?;
    if demand == 0 {
        return Err(DecodeError::new("demand", "positive integer"));
    }
    let payment = f64_field(v, "payment")?;
    if !(payment >= 0.0 && payment.is_finite()) {
        return Err(DecodeError::new("payment", "finite non-negative number"));
    }
    let duration_days = u32_field(v, "duration_days")?;
    if duration_days == 0 {
        return Err(DecodeError::new("duration_days", "positive integer"));
    }
    Ok(Proposal {
        demand,
        payment,
        duration_days,
        zone: opt_u32_field(v, "zone")?,
    })
}

/// Decodes a [`DayRecord`] from its serialized object form.
pub fn decode_day_record(v: &Value) -> Result<DayRecord, DecodeError> {
    Ok(DayRecord {
        day: u32_field(v, "day")?,
        arrived: usize_field(v, "arrived")?,
        satisfied: usize_field(v, "satisfied")?,
        committed: f64_field(v, "committed")?,
        collected: f64_field(v, "collected")?,
        regret: f64_field(v, "regret")?,
        locked_billboards: usize_field(v, "locked_billboards")?,
        total_billboards: usize_field(v, "total_billboards")?,
    })
}

/// Decodes a [`Ledger`] from its serialized object form.
pub fn decode_ledger(v: &Value) -> Result<Ledger, DecodeError> {
    let Value::Array(days) = &v["days"] else {
        return Err(DecodeError::new("days", "array"));
    };
    Ok(Ledger {
        days: days
            .iter()
            .map(decode_day_record)
            .collect::<Result<_, _>>()?,
    })
}

/// Decodes a [`LockState`] from its serialized object form
/// (`locked_until` is an array of expiry days, with `null` for free).
pub fn decode_lock_state(v: &Value) -> Result<LockState, DecodeError> {
    let Value::Array(locks) = &v["locked_until"] else {
        return Err(DecodeError::new("locked_until", "array"));
    };
    let locked_until = locks
        .iter()
        .enumerate()
        .map(|(i, lock)| match lock {
            Value::Null => Ok(None),
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u32::MAX as f64 => {
                Ok(Some(*n as u32))
            }
            _ => Err(DecodeError::new(
                format!("locked_until[{i}]"),
                "null or expiry day",
            )),
        })
        .collect::<Result<_, _>>()?;
    Ok(LockState { locked_until })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reparse(json: &str) -> Value {
        serde_json::from_str(json).expect("valid JSON")
    }

    #[test]
    fn proposal_roundtrips_through_json() {
        let p = Proposal {
            demand: 120,
            payment: 110.0,
            duration_days: 4,
            zone: None,
        };
        let v = reparse(&serde_json::to_string(&p).unwrap());
        assert_eq!(decode_proposal(&v).unwrap(), p);
        let zoned = Proposal { zone: Some(3), ..p };
        let v = reparse(&serde_json::to_string(&zoned).unwrap());
        assert_eq!(decode_proposal(&v).unwrap(), zoned);
    }

    #[test]
    fn pre_zone_proposals_decode_with_no_zone() {
        let v = reparse(r#"{"demand":10,"payment":9.0,"duration_days":2}"#);
        assert_eq!(decode_proposal(&v).unwrap().zone, None);
    }

    #[test]
    fn ledger_roundtrips_through_json() {
        let ledger = Ledger {
            days: vec![
                DayRecord {
                    day: 0,
                    arrived: 3,
                    satisfied: 2,
                    committed: 30.0,
                    collected: 25.5,
                    regret: 4.5,
                    locked_billboards: 7,
                    total_billboards: 20,
                },
                DayRecord::default(),
            ],
        };
        let v = reparse(&serde_json::to_string(&ledger).unwrap());
        let back = decode_ledger(&v).unwrap();
        assert_eq!(back.days, ledger.days);
    }

    #[test]
    fn lock_state_roundtrips_through_json() {
        let state = LockState {
            locked_until: vec![None, Some(3), Some(0), None],
        };
        let v = reparse(&serde_json::to_string(&state).unwrap());
        assert_eq!(decode_lock_state(&v).unwrap(), state);
    }

    #[test]
    fn missing_fields_name_themselves() {
        let err = decode_proposal(&reparse(r#"{"demand":1}"#)).unwrap_err();
        assert_eq!(err.field, "payment");
        let err = decode_lock_state(&reparse(r#"{}"#)).unwrap_err();
        assert_eq!(err.field, "locked_until");
    }

    #[test]
    fn proposals_no_advertiser_can_hold_are_rejected() {
        for (json, field) in [
            (r#"{"demand":0,"payment":1,"duration_days":1}"#, "demand"),
            (
                r#"{"demand":1,"payment":-0.5,"duration_days":1}"#,
                "payment",
            ),
            (
                r#"{"demand":1,"payment":1e999,"duration_days":1}"#,
                "payment",
            ),
            (
                r#"{"demand":1,"payment":1,"duration_days":0}"#,
                "duration_days",
            ),
        ] {
            let err = decode_proposal(&reparse(json)).unwrap_err();
            assert_eq!(err.field, field, "{json}");
        }
        // The boundaries themselves are valid: a free campaign of one day.
        let p = decode_proposal(&reparse(r#"{"demand":1,"payment":0,"duration_days":1}"#));
        assert_eq!(p.unwrap().payment, 0.0);
    }

    #[test]
    fn fractional_integers_are_rejected() {
        let err = decode_proposal(&reparse(r#"{"demand":1.5,"payment":1,"duration_days":1}"#))
            .unwrap_err();
        assert_eq!(err.field, "demand");
    }
}
