//! The HTTP request decoder under damaged bytes: a recorded `POST /jobs`
//! request (head plus `JobSpec` body) with flipped bytes, cuts, splices,
//! or digit runs (`Content-Length` included) overwritten with long digit
//! strings. `read_request` reads it over a loopback connection whose
//! writer has shut down, and returns before its deadline without a panic:
//! nothing, or a request with an uppercase method and a bounded body.

use edse_core::JobSpec;
use edse_serve::http::read_request;
use proptest::prelude::*;
use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A valid `POST /jobs` request, as a client sends it.
fn recorded_request() -> Vec<u8> {
    let body = JobSpec {
        technique: "random".to_string(),
        budget: 42,
        models: vec!["resnet18".to_string()],
        space: "toy".to_string(),
        checkpoint: Some(PathBuf::from("job1.snapshot")),
        resume: true,
        ..JobSpec::default()
    }
    .to_json_string();
    format!(
        "POST /jobs HTTP/1.1\r\nHost: 127.0.0.1:8080\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One way of damaging the request's bytes. Positions are taken modulo
/// the length, so every mutation applies to any request.
#[derive(Debug, Clone)]
enum Mutation {
    /// XOR the byte at `at` with a non-zero `mask`.
    Flip { at: usize, mask: u8 },
    /// Cut the request at `at`.
    Truncate { at: usize },
    /// Copy `len` bytes starting at `from` in front of `at`.
    Splice { from: usize, len: usize, at: usize },
    /// Overwrite the `nth` run of ASCII digits with `digits`.
    Digits { nth: usize, digits: String },
}

impl Mutation {
    fn apply(&self, bytes: &mut Vec<u8>) {
        let n = bytes.len();
        if n == 0 {
            return;
        }
        match self {
            Mutation::Flip { at, mask } => bytes[at % n] ^= mask,
            Mutation::Truncate { at } => bytes.truncate(at % n),
            Mutation::Splice { from, len, at } => {
                let from = from % n;
                let piece = bytes[from..(from + len).min(n)].to_vec();
                bytes.splice(at % n..at % n, piece);
            }
            Mutation::Digits { nth, digits } => {
                let starts: Vec<usize> = (0..n)
                    .filter(|&i| {
                        bytes[i].is_ascii_digit() && (i == 0 || !bytes[i - 1].is_ascii_digit())
                    })
                    .collect();
                if starts.is_empty() {
                    return;
                }
                let start = starts[nth % starts.len()];
                let end = start
                    + bytes[start..]
                        .iter()
                        .take_while(|b| b.is_ascii_digit())
                        .count();
                bytes.splice(start..end, digits.bytes());
            }
        }
    }
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    let pos = || 0usize..1 << 12;
    // Around the body limit (1 MiB), 2^32, 2^64 and past `u64`.
    let digits = prop_oneof![
        Just("1048576".to_string()),
        Just("1048577".to_string()),
        Just("4294967296".to_string()),
        Just("18446744073709551616".to_string()),
        (1usize..40).prop_map(|len| "9".repeat(len)),
        (1u64..u64::MAX).prop_map(|v| v.to_string()),
    ];
    prop_oneof![
        (pos(), 1u8..=255).prop_map(|(at, mask)| Mutation::Flip { at, mask }),
        pos().prop_map(|at| Mutation::Truncate { at }),
        (pos(), 1usize..64, pos()).prop_map(|(from, len, at)| Mutation::Splice { from, len, at }),
        // The recorded request has about a dozen digit runs.
        (0usize..16, digits).prop_map(|(nth, digits)| Mutation::Digits { nth, digits }),
    ]
}

/// The two ends of one loopback connection: `(client, server)`.
fn loopback_pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
    let (server, _) = listener.accept().expect("accept");
    (client, server)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn damaged_requests_parse_or_fail_without_panicking(
        mutations in proptest::collection::vec(arb_mutation(), 1..4),
    ) {
        let mut bytes = recorded_request();
        for m in &mutations {
            m.apply(&mut bytes);
        }
        let (mut client, server) = loopback_pair();
        client.write_all(&bytes).expect("a request fits the socket buffer");
        // End of stream after the bytes: a truncated request ends there,
        // not at the read timeout.
        client.shutdown(Shutdown::Write).expect("shut down the write half");
        let limit = Duration::from_secs(5);
        let started = Instant::now();
        let request = read_request(&server, Duration::from_secs(2), started + limit);
        prop_assert!(started.elapsed() < limit, "read took {:?}", started.elapsed());
        if let Some(request) = request {
            prop_assert!(!request.method.is_empty());
            prop_assert_eq!(&request.method, &request.method.to_uppercase());
            prop_assert!(request.body.len() <= 1 << 20);
        }
    }
}
