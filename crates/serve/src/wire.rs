//! The invoke route's JSON, both directions, with no value tree in
//! between: the request body is walked once with
//! [`JsonReader`] and every array lands straight in its `Vec<f64>`; the
//! response's arrays are appended to one `String` by
//! [`write_f64_array`].

use sdfg_core::serialize::{json_escape, write_f64_array, JsonReader};
use sdfg_core::SdfgError;
use sdfg_exec::Bindings;
use std::collections::HashMap;

/// Bindings, `timeout_ms`, `outputs`.
pub(crate) type InvokeParts = (Bindings, Option<u64>, Option<Vec<String>>);

/// The keys of an invoke body, in the order their defects are reported.
const INVOKE_KEYS: [&str; 4] = ["symbols", "arrays", "timeout_ms", "outputs"];

/// Decodes an invoke body: `{"symbols": {..}, "arrays": {..},
/// "timeout_ms": N, "outputs": [..]}`; every field optional, keys in any
/// order, the first occurrence of a key counts, unknown keys are skipped,
/// and a `symbols` or `arrays` that is not an object is ignored. The
/// error is the message of a `400 SDFG-S002`.
///
/// A document that is not JSON is reported before a field of the wrong
/// type, and wrong fields in the order of [`INVOKE_KEYS`] whichever comes
/// first in the bytes — so a wrong field is noted and the walk goes on.
pub(crate) fn decode_invoke_body(body: &[u8]) -> Result<InvokeParts, String> {
    let mut parts = InvokeParts::default();
    if body.is_empty() {
        return Ok(parts);
    }
    let src = std::str::from_utf8(body).map_err(|_| "request body is not UTF-8".to_string())?;
    let mut r = JsonReader::new(src);
    let mut wrong = None;
    walk(&mut r, &mut parts, &mut wrong)
        .and_then(|()| r.finish())
        .map_err(|msg| format!("deserialization: {msg}"))?;
    match wrong {
        Some((_, msg)) => Err(msg),
        None => Ok(parts),
    }
}

/// Walks the document. `Err` is a syntax error; a well-formed field of
/// the wrong type goes to `wrong` with its key's rank, lowest rank kept.
fn walk(
    r: &mut JsonReader,
    (bindings, timeout_ms, outputs): &mut InvokeParts,
    wrong: &mut Option<(usize, String)>,
) -> Result<(), String> {
    if r.peek() != Some(b'{') {
        return r.skip_value();
    }
    r.open(b'{')?;
    let mut seen = [false; INVOKE_KEYS.len()];
    let mut first_key = true;
    while r.next_item(b'}', &mut first_key)? {
        let key = r.key()?;
        let rank = INVOKE_KEYS.iter().position(|k| *k == key);
        let Some(rank) = rank.filter(|&rank| !std::mem::replace(&mut seen[rank], true)) else {
            r.skip_value()?;
            continue;
        };
        let mut note = |msg: String| {
            if wrong.as_ref().is_none_or(|(at, _)| rank < *at) {
                *wrong = Some((rank, msg));
            }
        };
        let mut first = true;
        match (INVOKE_KEYS[rank], r.peek()) {
            ("symbols", Some(b'{')) => {
                r.open(b'{')?;
                while r.next_item(b'}', &mut first)? {
                    let name = r.key()?;
                    if !r.at_number() {
                        r.skip_value()?;
                        note(format!("symbol `{name}` must be a number"));
                        continue;
                    }
                    let x = r.number()?;
                    if x.fract() != 0.0 {
                        note(format!("symbol `{name}` must be an integer"));
                    }
                    *bindings = std::mem::take(bindings).symbol(&name, x as i64);
                }
            }
            ("arrays", Some(b'{')) => {
                r.open(b'{')?;
                while r.next_item(b'}', &mut first)? {
                    let name = r.key()?;
                    if r.peek() != Some(b'[') {
                        r.skip_value()?;
                        note(format!("array `{name}` must be a JSON array"));
                        continue;
                    }
                    r.open(b'[')?;
                    let (mut data, mut first) = (Vec::new(), true);
                    while r.next_item(b']', &mut first)? {
                        if r.at_number() {
                            data.push(r.number()?);
                        } else {
                            r.skip_value()?;
                            note(format!("array `{name}` must hold only numbers"));
                        }
                    }
                    *bindings = std::mem::take(bindings).array_vec(&name, data);
                }
            }
            ("symbols" | "arrays", _) => r.skip_value()?,
            ("timeout_ms", _) => {
                let x = if r.at_number() {
                    r.number()?
                } else {
                    r.skip_value()?;
                    f64::NAN
                };
                if x >= 0.0 {
                    *timeout_ms = Some(x as u64);
                } else {
                    note("timeout_ms must be a non-negative number".into());
                }
            }
            (_, Some(b'[')) => {
                r.open(b'[')?;
                let mut names = Vec::new();
                while r.next_item(b']', &mut first)? {
                    if r.peek() == Some(b'"') {
                        names.push(r.string()?);
                    } else {
                        r.skip_value()?;
                        note("outputs must be an array of names".into());
                    }
                }
                *outputs = Some(names);
            }
            _ => {
                r.skip_value()?;
                note("outputs must be an array of names".into());
            }
        }
    }
    Ok(())
}

/// The deterministic part of an invoke response, up to and excluding
/// `,"wall_ms"`: the arrays `want` names (all of them when `None`), in
/// name order.
pub(crate) fn encode_outputs(
    hash: u64,
    arrays: &HashMap<String, Vec<f64>>,
    want: Option<&[String]>,
) -> Result<String, SdfgError> {
    let mut names: Vec<&String> = match want {
        Some(want) => want.iter().collect(),
        None => arrays.keys().collect(),
    };
    if let Some(name) = names.iter().find(|name| !arrays.contains_key(**name)) {
        return Err(SdfgError::UnknownData {
            name: (*name).clone(),
        });
    }
    names.sort();
    let mut body = format!("{{\"program\":\"{hash:016x}\",\"outputs\":{{");
    for (i, name) in names.into_iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push('"');
        body.push_str(&json_escape(name));
        body.push_str("\":");
        write_f64_array(&mut body, &arrays[name]);
    }
    body.push('}');
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfg_core::serialize::{parse_json, Json};

    #[test]
    fn decode_invoke_body_full() {
        let body =
            br#"{"symbols":{"N":8},"arrays":{"A":[1.0,2.5]},"timeout_ms":250,"outputs":["A"]}"#;
        let Ok((b, timeout, outputs)) = decode_invoke_body(body) else {
            panic!("body should decode");
        };
        assert_eq!(b.arrays()["A"], [1.0, 2.5]);
        assert_eq!(b.symbols()["N"], 8);
        assert_eq!(timeout, Some(250));
        assert_eq!(outputs, Some(vec!["A".to_string()]));
    }

    #[test]
    fn decode_invoke_body_rejects_junk() {
        let err = |body: &[u8]| decode_invoke_body(body).map(drop).unwrap_err();
        assert_eq!(
            err(b"{\"symbols\":{\"N\":1.5}}"),
            "symbol `N` must be an integer"
        );
        let msg = err(b"{\"arrays\":\n{\"A\":[1,}}");
        assert!(msg.contains("line 2, column 9"), "{msg}");
    }

    #[test]
    fn outputs_are_sorted_filtered_and_checked() {
        let arrays: HashMap<String, Vec<f64>> = [
            ("y".to_string(), vec![0.5, f64::NAN]),
            ("a\"".to_string(), vec![]),
        ]
        .into();
        assert_eq!(
            encode_outputs(255, &arrays, None).unwrap(),
            r#"{"program":"00000000000000ff","outputs":{"a\"":[],"y":[0.5,null]}"#
        );
        let want = ["y".to_string()];
        assert_eq!(
            encode_outputs(255, &arrays, Some(&want)).unwrap(),
            r#"{"program":"00000000000000ff","outputs":{"y":[0.5,null]}"#
        );
        let want = ["y".to_string(), "nope".to_string()];
        let err = encode_outputs(255, &arrays, Some(&want)).unwrap_err();
        assert!(matches!(err, SdfgError::UnknownData { name } if name == "nope"));
    }

    /// What `decode_invoke_body` was before it read the bytes itself:
    /// build the value tree, then pick the fields out of it.
    fn decode_via_tree(body: &[u8]) -> Result<InvokeParts, String> {
        if body.is_empty() {
            return Ok(InvokeParts::default());
        }
        let src = std::str::from_utf8(body).map_err(|_| "request body is not UTF-8".to_string())?;
        let doc = parse_json(src).map_err(|msg| format!("deserialization: {msg}"))?;
        let mut bindings = Bindings::new();
        if let Some(Json::Obj(pairs)) = doc.get("symbols") {
            for (name, v) in pairs {
                let Json::Num(x) = v else {
                    return Err(format!("symbol `{name}` must be a number"));
                };
                if x.fract() != 0.0 {
                    return Err(format!("symbol `{name}` must be an integer"));
                }
                bindings = bindings.symbol(name, *x as i64);
            }
        }
        if let Some(Json::Obj(pairs)) = doc.get("arrays") {
            for (name, v) in pairs {
                let Json::Arr(items) = v else {
                    return Err(format!("array `{name}` must be a JSON array"));
                };
                let mut data = Vec::with_capacity(items.len());
                for item in items {
                    let Json::Num(x) = item else {
                        return Err(format!("array `{name}` must hold only numbers"));
                    };
                    data.push(*x);
                }
                bindings = bindings.array_vec(name, data);
            }
        }
        let timeout_ms = match doc.get("timeout_ms") {
            Some(Json::Num(x)) if *x >= 0.0 => Some(*x as u64),
            Some(_) => return Err("timeout_ms must be a non-negative number".into()),
            None => None,
        };
        let outputs = match doc.get("outputs") {
            Some(Json::Arr(items)) => {
                let mut names = Vec::with_capacity(items.len());
                for item in items {
                    let Json::Str(s) = item else {
                        return Err("outputs must be an array of names".into());
                    };
                    names.push(s.clone());
                }
                Some(names)
            }
            Some(_) => return Err("outputs must be an array of names".into()),
            None => None,
        };
        Ok((bindings, timeout_ms, outputs))
    }

    /// SplitMix64.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn one_in(&mut self, n: usize) -> bool {
            self.below(n) == 0
        }

        fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
            from[self.below(from.len())]
        }
    }

    /// Builds one invoke body: a token at a time, random whitespace in
    /// between.
    struct Gen {
        rng: Rng,
        out: String,
    }

    impl Gen {
        fn ws(&mut self) {
            while self.rng.one_in(4) {
                self.out
                    .push_str(self.rng.pick(&[" ", "\n", "\t", "\r", "  "]));
            }
        }

        fn tok(&mut self, s: &str) {
            self.ws();
            self.out.push_str(s);
        }

        /// A number in every form the grammar takes, and the two JSON
        /// forbids but `str::parse` does not.
        fn number(&mut self) {
            let r = self.rng.next();
            let s = match self.rng.below(12) {
                0 => self
                    .rng
                    .pick(&["-0", "0", "-0.0", "1e400", "-1e400"])
                    .into(),
                1 => self
                    .rng
                    .pick(&["5e-324", "2.2250738585072011e-308", "-4.9e-324"])
                    .into(),
                2 => self
                    .rng
                    .pick(&["-.5", "01", "5.", "1E+2", "1e-2", "12.5e3"])
                    .into(),
                3 => format!("{}", r % 1_000_000_000),
                4 => format!("{}", f64::from_bits(r))
                    .replace("NaN", "7")
                    .replace("inf", "8"),
                5 => format!("{}", (r >> 11) as f64 / (1u64 << 53) as f64),
                6 => format!("-{}.{:03}", r % 5_000_000, r % 1000),
                7 => format!("{}", (1u64 << 53) - 2 + r % 5),
                8 => format!("0.{:020}", r % 100_000),
                _ => format!("{}", (r % 1_000_000_000) as f64 / 1e9),
            };
            self.tok(&s);
        }

        /// A string with escapes; `base` makes keys collide on purpose.
        fn string(&mut self, base: &str) {
            let s = match self.rng.below(6) {
                0 => format!("\"{base}\\u0041\""),
                1 => format!("\"\\n{base}\\\"\\\\\\/\""),
                2 => format!("\"{base}\u{e9}\u{4e2d}\""),
                _ => format!("\"{base}\""),
            };
            self.tok(&s);
        }

        /// Any value, nested up to `depth`: what an unknown key holds, and
        /// what turns up where a number or a name belongs.
        fn any(&mut self, depth: usize) {
            match self.rng.below(if depth == 0 { 5 } else { 7 }) {
                0 => self.number(),
                1 => self.string("s"),
                2 => self.tok("null"),
                3 => self.tok("true"),
                4 => self.tok("false"),
                5 => self.seq('[', ']', 4, |g| g.any(depth - 1)),
                _ => self.seq('{', '}', 4, |g| {
                    g.string("k");
                    g.tok(":");
                    g.any(depth - 1);
                }),
            }
        }

        fn seq(&mut self, open: char, close: char, max: usize, mut item: impl FnMut(&mut Gen)) {
            self.tok(&open.to_string());
            for i in 0..self.rng.below(max + 1) {
                if i > 0 {
                    self.tok(",");
                }
                item(self);
            }
            self.tok(&close.to_string());
        }

        fn member(&mut self) {
            let key = self.rng.pick(&[
                "symbols",
                "arrays",
                "timeout_ms",
                "outputs",
                "arrays",
                "extra",
                "symbol",
            ]);
            self.tok(&format!("\"{key}\""));
            self.tok(":");
            if self.rng.one_in(10) {
                return self.any(2);
            }
            match key {
                "symbols" => self.seq('{', '}', 3, |g| {
                    let name = g.rng.pick(&["N", "M", "N"]);
                    g.string(name);
                    g.tok(":");
                    match g.rng.below(8) {
                        0 => g.any(1),
                        1 => g.tok("2.5"),
                        _ => {
                            let v = g.rng.pick(&["8", "-3", "-0", "1e3", "4.0", "1e400", "007"]);
                            g.tok(v);
                        }
                    }
                }),
                "arrays" => self.seq('{', '}', 3, |g| {
                    let name = g.rng.pick(&["A", "x", "A"]);
                    g.string(name);
                    g.tok(":");
                    if g.rng.one_in(12) {
                        return g.any(1);
                    }
                    let len = [0, 1, 3, 40][g.rng.below(4)];
                    g.seq('[', ']', len, |g| {
                        if g.rng.one_in(60) {
                            g.any(1)
                        } else {
                            g.number()
                        }
                    });
                }),
                "timeout_ms" => {
                    let v = self
                        .rng
                        .pick(&["250", "0", "-1", "1.5", "1e400", "\"5\"", "-0"]);
                    self.tok(v);
                }
                "outputs" => self.seq('[', ']', 3, |g| {
                    if g.rng.one_in(10) {
                        g.any(1)
                    } else {
                        g.string("A")
                    }
                }),
                _ => self.any(3),
            }
        }

        fn body(seed: u64) -> String {
            let mut g = Gen {
                rng: Rng(seed),
                out: String::new(),
            };
            if g.rng.one_in(20) {
                g.any(2);
            } else {
                g.seq('{', '}', 6, Gen::member);
            }
            g.ws();
            g.out
        }
    }

    fn assert_same(body: &[u8]) {
        let shown = String::from_utf8_lossy(body);
        match (decode_invoke_body(body), decode_via_tree(body)) {
            (Err(got), Err(want)) => assert_eq!(got, want, "body `{shown}`"),
            (Ok(got), Ok(want)) => {
                assert_eq!(got.0.symbols(), want.0.symbols(), "body `{shown}`");
                let bits = |b: &Bindings| -> std::collections::BTreeMap<String, Vec<u64>> {
                    b.arrays()
                        .iter()
                        .map(|(name, data)| {
                            (name.clone(), data.iter().map(|x| x.to_bits()).collect())
                        })
                        .collect()
                };
                assert_eq!(bits(&got.0), bits(&want.0), "body `{shown}`");
                assert_eq!((got.1, &got.2), (want.1, &want.2), "body `{shown}`");
            }
            (got, want) => panic!(
                "body `{shown}`: reader {:?}, tree {:?}",
                got.map(drop),
                want.map(drop)
            ),
        }
    }

    /// The one-pass decoder against the tree path on generated bodies:
    /// same accept/reject, same message, bit-identical bindings. Then the
    /// same bodies damaged — one byte dropped, doubled or replaced — and
    /// every prefix of a few.
    #[test]
    fn decoder_matches_the_tree_path_on_generated_bodies() {
        let mut rng = Rng(0xdace);
        let (mut accepted, mut rejected) = (0, 0);
        for seed in 0..6000 {
            let body = Gen::body(seed).into_bytes();
            assert_same(&body);
            match decode_invoke_body(&body) {
                Ok(_) => accepted += 1,
                Err(_) => rejected += 1,
            }
            if body.is_empty() {
                continue;
            }
            for _ in 0..4 {
                let mut hurt = body.clone();
                let at = rng.below(hurt.len());
                match rng.below(3) {
                    0 => drop(hurt.remove(at)),
                    1 => hurt.insert(at, hurt[at]),
                    _ => {
                        let with = b"{}[]\",:-.e0 x\\\xff";
                        hurt[at] = with[rng.below(with.len())];
                    }
                }
                assert_same(&hurt);
            }
            if seed % 200 == 0 {
                for cut in 0..body.len() {
                    assert_same(&body[..cut]);
                }
            }
        }
        // The generator reaches both outcomes in bulk.
        assert!(
            accepted > 1000 && rejected > 1000,
            "{accepted} / {rejected}"
        );
    }
}
