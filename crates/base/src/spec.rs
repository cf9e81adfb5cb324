//! The `key=value,key=value` spec grammar behind `--chaos`.
//!
//! One grammar, one vocabulary per table: a config declares a table of
//! [`Key`]s (name, a tag the vocabulary reads, and a typed [`Set`]ter) and
//! `parse` does the rest — parts are trimmed, empty parts skipped,
//! values typed as a bounded probability or a count, each key admitted
//! by the caller on its tag, and an unknown key, a refused key or a
//! malformed value is an error that names the key, never a default.

/// How a key's value is typed, and where it lands in the config `C`.
pub enum Set<C> {
    /// A probability in `[0, max]`.
    Prob(f64, fn(&mut C, f64)),
    /// A non-negative integer.
    Count(fn(&mut C, u64)),
}

/// One key of a spec vocabulary: its name as written, its tag, and its
/// setter.
pub type Key<C, T> = (&'static str, T, Set<C>);

/// Apply `spec` to `cfg` through the vocabulary `keys`, refusing any key
/// whose tag `admit` rejects (with `admit`'s message). `what` names the
/// spec in error messages. Later occurrences of a key override earlier
/// ones; the empty spec changes nothing.
pub(crate) fn parse<C, T: Copy>(
    what: &str,
    keys: &[Key<C, T>],
    spec: &str,
    cfg: &mut C,
    admit: impl Fn(&str, T) -> Result<(), String>,
) -> Result<(), String> {
    for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let (name, value) = part
            .split_once('=')
            .ok_or_else(|| format!("{what} spec part {part:?} is not key=value"))?;
        let (_, tag, set) = keys.iter().find(|(k, ..)| *k == name).ok_or_else(|| {
            let valid: Vec<&str> = keys.iter().map(|(k, ..)| *k).collect();
            format!("unknown {what} key {name:?} (valid: {})", valid.join(", "))
        })?;
        admit(name, *tag)?;
        match set {
            Set::Prob(max, set) => {
                let p: f64 = value
                    .parse()
                    .map_err(|_| format!("{what} {name}={value:?} is not a number"))?;
                if !(0.0..=*max).contains(&p) {
                    return Err(format!("{what} {name}={value} is outside [0, {max}]"));
                }
                set(cfg, p);
            }
            Set::Count(set) => {
                let n: u64 = value
                    .parse()
                    .map_err(|_| format!("{what} {name}={value:?} is not a count"))?;
                set(cfg, n);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::Set::{Count, Prob};
    use super::*;

    /// `(seed, panic, delay_ms)`.
    #[derive(Debug, Default, PartialEq)]
    struct Toy(u64, f64, u64);

    /// Tagged `true` where the toy admits the key.
    const KEYS: &[Key<Toy, bool>] = &[
        ("seed", true, Count(|c, v| c.0 = v)),
        ("panic", true, Prob(1.0, |c, v| c.1 = v)),
        ("delay-ms", true, Count(|c, v| c.2 = v)),
        ("drop", true, Prob(0.95, |_, _| {})),
        ("kill", false, Prob(1.0, |_, _| {})),
    ];

    fn toy(spec: &str) -> Result<Toy, String> {
        let mut cfg = Toy::default();
        let admit = |name: &str, ok: bool| ok.then_some(()).ok_or(format!("{name} refused"));
        parse("toy", KEYS, spec, &mut cfg, admit).map(|()| cfg)
    }

    #[test]
    fn grammar_accepts() {
        for (spec, want) in [
            ("", Toy::default()),
            ("seed=7,panic=0.5,delay-ms=25", Toy(7, 0.5, 25)),
            // Parts are trimmed and empty parts skipped.
            (" seed=7 ,, panic=0.5,\n delay-ms=25,", Toy(7, 0.5, 25)),
            // Both ends of the probability range are in; the last wins.
            ("panic=0,panic=1", Toy(0, 1.0, 0)),
            ("drop=0.95", Toy::default()),
        ] {
            assert_eq!(toy(spec).as_ref(), Ok(&want), "{spec:?}");
        }
    }

    #[test]
    fn grammar_rejects_naming_the_culprit() {
        for (spec, needles) in [
            ("panic", &["\"panic\"", "key=value"][..]),
            ("panic=1.5", &["panic=1.5", "outside [0, 1]"]),
            ("panic=-0.1", &["panic=-0.1", "outside [0, 1]"]),
            ("panic=nan", &["panic=nan", "outside [0, 1]"]),
            ("panic=x", &["panic=\"x\"", "not a number"]),
            ("seed=x", &["seed=\"x\"", "not a count"]),
            ("seed=-1", &["seed=\"-1\"", "not a count"]),
            ("seed=1.5", &["not a count"]),
            // Each key has its own bound.
            ("drop=0.96", &["drop=0.96", "outside [0, 0.95]"]),
            (
                "frobnicate=1",
                &[
                    "unknown toy key \"frobnicate\"",
                    "seed, panic, delay-ms, drop, kill",
                ],
            ),
            // A key its tag does not admit is refused before its value
            // is read.
            ("kill=x", &["kill refused"]),
            // A good prefix does not excuse a bad tail.
            ("seed=1,bogus=2", &["\"bogus\""]),
        ] {
            let err = toy(spec).unwrap_err();
            for needle in needles {
                assert!(err.contains(needle), "{spec:?}: {err}");
            }
        }
    }
}
