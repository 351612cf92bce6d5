//! The lock-free protocols' memory orderings are argued where they are
//! chosen: every load, store, swap, compare-exchange or `fetch_*` on the
//! completion slot's `state` or the weight-swap cell's `generation` sits
//! under a comment block that names the `Ordering` it uses and why.

const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];
const OPS: [&str; 5] = [
    ".load(",
    ".store(",
    ".swap(",
    ".compare_exchange",
    ".fetch_",
];
const FIELDS: [&str; 2] = ["state", "generation"];

/// The 1-based line of each atomic op on a protocol field, and whether
/// the comment block right above its statement names an ordering. A
/// statement split across lines starts at the first line that the
/// `.`-led continuation lines below it hang from.
fn sites(source: &str) -> Vec<(usize, bool)> {
    let lines: Vec<&str> = source.lines().collect();
    let mut out = Vec::new();
    for (at, line) in lines.iter().enumerate() {
        if !OPS.iter().any(|op| line.contains(op)) {
            continue;
        }
        let mut start = at;
        while start > 0 && lines[start].trim_start().starts_with('.') {
            start -= 1;
        }
        let statement: String = lines[start..=at].iter().map(|l| l.trim()).collect();
        let on_field = FIELDS.iter().any(|field| {
            OPS.iter()
                .any(|op| statement.contains(&format!("{field}{op}")))
        });
        if !on_field {
            continue;
        }
        let comment = lines[..start]
            .iter()
            .rev()
            .take_while(|l| l.trim_start().starts_with("//"))
            .any(|l| ORDERINGS.iter().any(|o| l.contains(o)));
        out.push((at + 1, comment));
    }
    out
}

fn uncommented(source: &str) -> Vec<usize> {
    sites(source)
        .into_iter()
        .filter_map(|(line, commented)| (!commented).then_some(line))
        .collect()
}

#[test]
fn every_protocol_atomic_names_its_ordering() {
    for (file, source, count) in [
        ("completion.rs", include_str!("../src/completion.rs"), 8),
        ("adapt.rs", include_str!("../src/adapt.rs"), 2),
    ] {
        assert_eq!(
            sites(source).len(),
            count,
            "{file}: protocol atomics found (a new one updates this count)"
        );
        assert_eq!(
            uncommented(source),
            Vec::<usize>::new(),
            "{file}: these lines need a comment above naming their Ordering"
        );
    }
}

#[test]
fn the_checker_finds_an_uncommented_site() {
    let snippet = "\
fn claim(&self) -> bool {
    // Acquire: pairs with the resolving Release.
    let seen = self.state.load(Ordering::Acquire);
    let next = self.head.load(Ordering::Relaxed);
    self.state
        .compare_exchange(PENDING, CLAIMED, Ordering::AcqRel, Ordering::Acquire)
        .is_ok()
}
";
    assert_eq!(sites(snippet).len(), 2, "`head` is not a protocol field");
    assert_eq!(uncommented(snippet), vec![6]);
}
