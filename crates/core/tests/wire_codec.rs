//! Exactness of the two fast paths in `core::serialize`: on seeded values
//! that hit them, miss them and sit on their edges, `JsonReader::number`
//! is bit-equal to `str::parse::<f64>` and consumes the same bytes, and
//! `write_f64_array` is byte-equal to a `format!("{x}")` loop.

use sdfg_core::serialize::{parse_json, write_f64_array, Json, JsonReader};

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

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Seeded doubles of every class the printer's fast path distinguishes.
fn doubles(rng: &mut Rng, count: usize) -> Vec<f64> {
    let edges = [4194304.0, 1e-9, 1.0, 9007199254740992.0, 0.001, 1e22];
    (0..count)
        .map(|_| {
            let r = rng.next();
            let x = match r % 11 {
                // Grid decimals, 0 to 17 digits: m / 10^k.
                0..=2 => {
                    let digits = rng.below(18) as u32;
                    let k = rng.below(u64::from(digits) + 1) as i32;
                    rng.below(10u64.pow(digits)) as f64 / 10f64.powi(k)
                }
                // What the benchmark sends: nine decimals in [0, 1).
                3 => rng.below(1_000_000_000) as f64 / 1e9,
                4 => f64::from_bits(rng.next()),
                // Integers up to 2^53 and a little past it.
                5 => rng.below((1 << 53) + 1000) as f64,
                6 => (rng.next() >> rng.below(64)) as f64,
                // A few ulps and a few grid points either side of an edge.
                7 => {
                    let edge: f64 = edges[rng.below(edges.len() as u64) as usize];
                    f64::from_bits(edge.to_bits() + rng.below(9) - 4)
                }
                8 => {
                    let edge = edges[rng.below(2) as usize];
                    edge + (rng.below(2001) as f64 - 1000.0) * 1e-9
                }
                // Full precision in [-1, 1).
                9 => (rng.next() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0,
                _ => [0.0, 5e-324, 2.2250738585072014e-308, f64::MAX, 0.1, 0.3]
                    [(r >> 8) as usize % 6],
            };
            if r & (1 << 40) == 0 {
                x
            } else {
                -x
            }
        })
        .collect()
}

/// The writer `write_f64_array` replaced.
fn display_loop(data: &[f64]) -> String {
    let mut out = String::from("[");
    for (i, x) in data.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if x.is_finite() {
            out.push_str(&format!("{x}"));
        } else {
            out.push_str("null");
        }
    }
    out.push(']');
    out
}

#[test]
fn printer_is_display_byte_for_byte() {
    let mut rng = Rng(17);
    for _ in 0..64 {
        let data = doubles(&mut rng, 1 << 14);
        let mut got = String::from("x");
        write_f64_array(&mut got, &data);
        assert_eq!(got[1..], display_loop(&data));
    }
    let mut got = String::new();
    write_f64_array(
        &mut got,
        &[0.0, -0.0, f64::NAN, f64::INFINITY, -1.5, 4194303.999999999],
    );
    assert_eq!(got, "[0,-0,null,null,-1.5,4194303.999999999]");
    got.clear();
    write_f64_array(&mut got, &[]);
    assert_eq!(got, "[]");
}

/// Reads `[a, b, ..]` with the pull reader, each element against
/// `str::parse` on the same text. A number that consumed a byte too few
/// or too many derails the walk.
fn assert_reads_like_std(texts: &[String]) {
    let doc = format!("[{}]", texts.join(" ,\n"));
    let mut r = JsonReader::new(&doc);
    r.open(b'[').unwrap();
    let mut first = true;
    for text in texts {
        assert!(r.next_item(b']', &mut first).unwrap());
        let want: f64 = text.parse().unwrap();
        let got = r.number().unwrap();
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "`{text}`: {got:e} vs {want:e}"
        );
    }
    assert!(!r.next_item(b']', &mut first).unwrap());
    r.finish().unwrap();
    // The tree builder shares the scanner.
    let Json::Arr(items) = parse_json(&doc).unwrap() else {
        panic!("array expected");
    };
    assert_eq!(items.len(), texts.len());
    for (item, text) in items.iter().zip(texts) {
        let want: f64 = text.parse().unwrap();
        assert!(
            matches!(item, Json::Num(x) if x.to_bits() == want.to_bits()),
            "`{text}`"
        );
    }
}

#[test]
fn scanner_is_str_parse_bit_for_bit() {
    let mut rng = Rng(23);
    // Shortest round-trip text of every class of double, and the same
    // value with its digits padded or its point moved into an exponent.
    for _ in 0..32 {
        let texts: Vec<String> = doubles(&mut rng, 1 << 14)
            .into_iter()
            .filter(|x| x.is_finite())
            .map(|x| match rng.below(6) {
                0 => format!("{x:e}"),
                1 => format!("{x}0000"),
                2 => format!("{x:.3}"),
                _ => format!("{x}"),
            })
            .collect();
        assert_reads_like_std(&texts);
    }
    // Digit strings straight from the generator: up to 25 digits, the
    // point anywhere, so the 19-digit, 2^53 and 22-place limits are all
    // crossed; leading zeros, `-.5` and `5.` included.
    for _ in 0..32 {
        let texts: Vec<String> = (0..1 << 14)
            .map(|_| {
                // A value starts with `-` or a digit: `-.5` but not `.5`.
                let mut text = String::new();
                let negative = rng.below(2) == 0;
                if negative {
                    text.push('-');
                }
                let (int, frac) = (rng.below(12).max(u64::from(!negative)), rng.below(26));
                let frac = if int == 0 { frac.max(1) } else { frac };
                let leading_zero = rng.below(4) == 0;
                for i in 0..int {
                    let d = if i == 0 && leading_zero {
                        0
                    } else {
                        rng.below(10)
                    };
                    text.push((b'0' + d as u8) as char);
                }
                if frac > 0 || rng.below(8) == 0 {
                    text.push('.');
                }
                for _ in 0..frac {
                    text.push((b'0' + rng.below(10) as u8) as char);
                }
                text
            })
            .collect();
        assert_reads_like_std(&texts);
    }
}

/// Whatever run of number bytes comes in, `number` takes all of it and
/// says what `str::parse` says, error or value.
#[test]
fn scanner_rejects_what_str_parse_rejects() {
    let mut rng = Rng(29);
    let alphabet = b"-+.eE0123456789";
    let (mut ok, mut bad) = (0, 0);
    for _ in 0..200_000 {
        let text: String = (0..1 + rng.below(7))
            .map(|_| alphabet[rng.below(alphabet.len() as u64) as usize] as char)
            .collect();
        let doc = format!(" {text} ]");
        let mut r = JsonReader::new(&doc);
        match (r.number(), text.parse::<f64>()) {
            (Ok(got), Ok(want)) => {
                assert_eq!(got.to_bits(), want.to_bits(), "`{text}`");
                r.expect(b']').unwrap();
                ok += 1;
            }
            (Err(msg), Err(_)) => {
                assert_eq!(msg, "invalid number at byte 1 (line 1, column 2)");
                bad += 1;
            }
            (got, want) => panic!("`{text}`: reader {got:?}, str::parse {want:?}"),
        }
    }
    assert!(ok > 10_000 && bad > 10_000, "{ok} / {bad}");
}

#[test]
fn arrays_round_trip_bitwise() {
    let mut rng = Rng(31);
    let mut data = doubles(&mut rng, 1 << 16);
    data.retain(|x| x.is_finite());
    data.extend((0..1 << 16).map(|_| (rng.next() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0));
    let mut text = String::new();
    write_f64_array(&mut text, &data);
    let mut r = JsonReader::new(&text);
    r.open(b'[').unwrap();
    let mut first = true;
    for want in &data {
        assert!(r.next_item(b']', &mut first).unwrap());
        assert_eq!(r.number().unwrap().to_bits(), want.to_bits());
    }
    assert!(!r.next_item(b']', &mut first).unwrap());
    r.finish().unwrap();
}
