//! The shipped scenario files are the DSL's source of truth — the
//! default calibration is `scenarios/covid-spring-2020.toml`, compiled in —
//! so their fingerprints are pinned, and every parse rule is exercised by
//! one violating file that must fail naming its line.

use lockdown_scenario::measures::ScenarioSpec;

fn shipped(name: &str) -> String {
    let path = format!("{}/../../scenarios/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

/// `fingerprint()` of each shipped file, recorded at the commit before the
/// file became the only source of the default calibration. A parser or
/// interpreter change that moves one behavioural value fails here by file.
const PINNED_FINGERPRINTS: [(&str, u64); 2] = [
    ("covid-spring-2020.toml", 0x83B1_5DC1_4143_60F6),
    ("hypergiant-outage.toml", 0x4315_B5EE_DD6A_E7F9),
];

#[test]
fn shipped_fingerprints_are_pinned() {
    for (name, pinned) in PINNED_FINGERPRINTS {
        let spec = ScenarioSpec::parse_toml(&shipped(name)).expect("shipped file parses");
        assert_eq!(spec.fingerprint(), pinned, "{name}: fingerprint moved");
    }
}

#[test]
fn shipped_files_roundtrip_through_render() {
    for name in ["covid-spring-2020.toml", "hypergiant-outage.toml"] {
        let parsed = ScenarioSpec::parse_toml(&shipped(name)).expect("parses");
        let reparsed = ScenarioSpec::parse_toml(&parsed.to_toml()).expect("rendering parses back");
        assert_eq!(parsed, reparsed, "{name}");
    }
}

#[test]
fn shipped_outage_file_is_a_distinct_valid_scenario() {
    let outage = ScenarioSpec::parse_toml(&shipped("hypergiant-outage.toml"))
        .expect("shipped counterfactual scenario parses");
    let builtin = ScenarioSpec::covid_spring_2020();
    assert_ne!(
        outage.fingerprint(),
        builtin.fingerprint(),
        "the counterfactual must be behaviourally distinct"
    );
    assert!(outage
        .events
        .iter()
        .any(|e| e.name == "hypergiant-cdn-outage"));
}

/// `text` with the first `from` replaced by `to`.
fn sub(text: &str, from: &str, to: &str) -> String {
    assert!(text.contains(from), "anchor {from:?} not in the file");
    text.replacen(from, to, 1)
}

/// `text` without the span from the first `from` through the next `through`.
fn cut(text: &str, from: &str, through: &str) -> String {
    let a = text.find(from).unwrap_or_else(|| panic!("anchor {from:?}"));
    let b = a + text[a..].find(through).expect("end anchor") + through.len();
    format!("{}{}", &text[..a], &text[b..])
}

/// One violating file per parse rule, each a mutation of the shipped
/// calibration. The line an error must name carries the marker `<-`; a
/// file without one must be rejected at its last line (something the file
/// never defines).
#[test]
fn every_parse_rule_names_its_line() {
    let base = shipped("covid-spring-2020.toml");
    let b = base.as_str();
    let covid_name = "name = \"covid-spring-2020\"";
    let cases: Vec<(&str, String)> = vec![
        // The TOML subset.
        ("unsupported string escape", sub(b, covid_name, r#"name = "co\vid" # <-"#)),
        ("unterminated string escape", sub(b, covid_name, r#"name = "covid <-\"#)),
        ("unterminated string", sub(b, covid_name, r#"name = "covid <-"#)),
        ("trailing characters after string", sub(b, covid_name, r#"name = "covid" x # <-"#)),
        ("impossible calendar date", sub(b, "closure = 2020-03-11", "closure = 2020-02-30 # <-")),
        ("non-finite float", sub(b, "floor = 0.45", "floor = 1e999 # <-")),
        ("unrecognized value", sub(b, "gain = 0.1", "gain = zero # <-")),
        ("trailing characters after array", sub(b, "kinds = [\"isp\"]", "kinds = [\"isp\"] x # <-")),
        ("only quoted strings", sub(b, "kinds = [\"isp\"]", "kinds = [1] # <-")),
        ("expected ',' or ']'", sub(b, "kinds = [\"isp\"]", "kinds = [\"isp\" \"ixp\"] # <-")),
        ("bad table header", sub(b, "[baseline]", "[base line] # <-")),
        ("expected `key = value`", sub(b, "organic-anchor =", "organic-anchor # <-")),
        ("bad key", sub(b, "organic-anchor =", "organic anchor = # <-")),
        ("duplicate key", sub(b, "gain = 0.1\n", "gain = 0.1\ngain = 0.2 # <-\n")),
        // Tables.
        ("top-level keys", sub(b, "[scenario]", "stray = 1 # <-\n[scenario]")),
        ("unknown table", sub(b, "[edu]", "[campus] # <-")),
        (
            "must follow a [[region]]",
            sub(
                b,
                "[[region]]\nname = \"central-europe\"\n\n[[region.measure]]",
                "[[region.measure]] # <-",
            ),
        ),
        (
            "defined twice",
            sub(
                b,
                "[[region]]\nname = \"southern-europe\"",
                "[[region]] # <-\nname = \"central-europe\"",
            ),
        ),
        ("missing [scenario]", cut(b, "[scenario]", "\n\n")),
        ("missing [baseline]", cut(b, "[baseline]", "\n\n")),
        ("missing [edu]", cut(b, "[edu]", "\n\n")),
        (
            "must define region us-east",
            cut(b, "[[region]]\nname = \"us-east\"", "reversion-days = 28.0\n"),
        ),
        // Keys and values.
        (
            "missing key \"organic-anchor\"",
            sub(&sub(b, "organic-anchor = 2020-01-15\n", ""), "[baseline]", "[baseline] # <-"),
        ),
        ("must be a string", sub(b, covid_name, "name = 7 # <-")),
        ("scenario name must not be empty", sub(b, covid_name, "name = \"\" # <-")),
        ("must be a YYYY-MM-DD date", sub(b, "closure = 2020-03-11", "closure = \"Mar 11\" # <-")),
        ("must be a number", sub(b, "factor = 0.55", "factor = \"half\" # <-")),
        ("must be an array of strings", sub(b, "kinds = [\"isp\"]", "kinds = \"isp\" # <-")),
        ("unknown key", sub(b, "ramp-days = 4.0", "ramp-dayz = 4.0 # <-")),
        ("outside [0, 1]", sub(b, "presence-floor = 0.07", "presence-floor = 1.07 # <-")),
        ("must be positive", sub(b, "remote-ramp-days = 14.0", "remote-ramp-days = 0.0 # <-")),
        (
            "organic-weekly-growth must be a positive number",
            sub(b, "organic-weekly-growth = 1.0035", "organic-weekly-growth = -1.0 # <-"),
        ),
        ("unknown region", sub(b, "name = \"us-east\"", "name = \"us-west\" # <-")),
        // Measures.
        (
            "unknown measure kind",
            sub(b, "kind = \"reopening\"", "kind = \"reopen\" # <-"),
        ),
        (
            "duplicate \"awareness\" measure",
            sub(
                b,
                "[[region.measure]]\n# First institutional measures: events cancelled, travel advisories.\nkind = \"restrictions\"",
                "[[region.measure]] # <-\nkind = \"awareness\"",
            ),
        ),
        (
            "lacks a \"reopening\" measure",
            sub(
                &cut(b, "[[region.measure]]\n# Gradual relaxation", "reversion-days = 28.0\n"),
                "[[region]]\nname = \"central-europe\"",
                "[[region]] # <-\nname = \"central-europe\"",
            ),
        ),
        // Each of the three order checks names the later measure's line.
        (
            "overlapping measure dates in central-europe: restrictions (2020-01-02)",
            sub(b, "date = 2020-03-09", "date = 2020-01-02 # <-"),
        ),
        (
            "overlapping measure dates in central-europe: stay-at-home (2020-03-01)",
            sub(b, "date = 2020-03-16\nfrom", "date = 2020-03-01 # <-\nfrom"),
        ),
        (
            "overlapping measure dates in central-europe: reopening (2020-03-10)",
            sub(b, "date = 2020-04-20", "date = 2020-03-10 # <-"),
        ),
        // Events.
        ("event name must not be empty", sub(b, "name = \"gaming-provider-outage\"", "name = \"\" # <-")),
        ("event factor", sub(b, "factor = 0.15", "factor = -0.15 # <-")),
        ("window is empty", sub(b, "until = 2020-03-18", "until = 2020-03-16 # <-")),
        ("unknown application class", sub(b, "classes = [\"gaming\"]", "classes = [\"gamign\"] # <-")),
        ("unknown vantage kind", sub(b, "kinds = [\"isp\"]", "kinds = [\"isq\"] # <-")),
        ("unknown vantage point", sub(b, "vantages = [\"ixp-se\"]", "vantages = [\"ixp-xx\"] # <-")),
    ];
    for (rule, text) in &cases {
        let marked: Vec<usize> = text
            .lines()
            .enumerate()
            .filter(|(_, l)| l.contains("<-"))
            .map(|(i, _)| i + 1)
            .collect();
        assert!(marked.len() <= 1, "{rule}: more than one marked line");
        let want = marked.first().copied().unwrap_or(text.lines().count());
        let err = ScenarioSpec::parse_toml(text).expect_err(rule);
        assert!(err.message.contains(rule), "{rule}: got {err}");
        assert_eq!(err.line, want, "{rule}: got {err}");
        assert!(err.to_string().starts_with(&format!("line {want}: ")));
    }
}
