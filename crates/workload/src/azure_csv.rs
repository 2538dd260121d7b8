//! Replay of real Azure LLM inference traces.
//!
//! The paper's Azure workload comes from
//! `AzureLLMInferenceTrace_conv.csv` (arrival timestamp, context tokens,
//! generated tokens). When a real trace file is available, this loader
//! turns it into a [`Trace`] directly — the synthetic Azure-like generator
//! is only the fallback for offline reproduction.
//!
//! Accepted shapes (header names are matched case-insensitively by
//! substring, so both the public dataset's `TIMESTAMP,ContextTokens,
//! GeneratedTokens` and simplified `arrival,input,output` files work):
//!
//! ```csv
//! TIMESTAMP,ContextTokens,GeneratedTokens
//! 2023-11-16 18:21:01.773,374,60
//! ```
//!
//! or with numeric arrival seconds:
//!
//! ```csv
//! arrival_s,input_tokens,output_tokens
//! 0.55,374,60
//! ```

use crate::request::Request;
use crate::trace::Trace;

/// Errors from trace parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number (0 for the header).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError { line, message: message.into() }
}

/// Parse a wall-clock timestamp (`YYYY-MM-DD HH:MM:SS[.fff]`) into seconds
/// since midnight of its day — only *differences* matter, and Azure's
/// public conversation trace spans a single day.
fn timestamp_seconds(s: &str, line: usize) -> Result<f64, ParseError> {
    let time = s
        .split_whitespace()
        .nth(1)
        .ok_or_else(|| err(line, format!("expected 'date time', got {s:?}")))?;
    let mut parts = time.split(':');
    let (h, m, sec) = match (parts.next(), parts.next(), parts.next()) {
        (Some(h), Some(m), Some(sec)) => (h, m, sec),
        _ => return Err(err(line, format!("bad time of day {time:?}"))),
    };
    let h: f64 = h.parse().map_err(|_| err(line, "bad hour"))?;
    let m: f64 = m.parse().map_err(|_| err(line, "bad minute"))?;
    let sec: f64 = sec.parse().map_err(|_| err(line, "bad second"))?;
    Ok(h * 3600.0 + m * 60.0 + sec)
}

/// Parse an Azure-style CSV into a trace. Arrivals are shifted so the
/// first request lands at t = 0 and re-sorted; ids are assigned densely in
/// arrival order. Rows with zero tokens are clamped to 1 (the serving
/// system needs at least one prompt and one output token).
pub fn parse_azure_csv(content: &str) -> Result<Trace, ParseError> {
    let mut lines = content.lines().enumerate();
    let (_, header) = lines
        .next()
        .ok_or_else(|| err(0, "empty file"))?;
    let cols: Vec<String> = header.split(',').map(|c| c.trim().to_ascii_lowercase()).collect();
    let find = |names: &[&str]| -> Option<usize> {
        cols.iter().position(|c| names.iter().any(|n| c.contains(n)))
    };
    let t_col = find(&["timestamp", "arrival"])
        .ok_or_else(|| err(0, format!("no timestamp/arrival column in {header:?}")))?;
    let in_col = find(&["context", "input", "prompt"])
        .ok_or_else(|| err(0, format!("no context/input column in {header:?}")))?;
    let out_col = find(&["generated", "output"])
        .ok_or_else(|| err(0, format!("no generated/output column in {header:?}")))?;

    let mut rows: Vec<(f64, usize, usize)> = Vec::new();
    for (i, raw) in lines {
        let line_no = i + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = raw.split(',').map(str::trim).collect();
        let need = t_col.max(in_col).max(out_col);
        if fields.len() <= need {
            return Err(err(line_no, format!("expected >= {} columns", need + 1)));
        }
        let t_raw = fields[t_col];
        let arrival = match t_raw.parse::<f64>() {
            Ok(v) => v,
            Err(_) => timestamp_seconds(t_raw, line_no)?,
        };
        if !arrival.is_finite() {
            return Err(err(line_no, format!("non-finite arrival {t_raw:?}")));
        }
        let input: usize = fields[in_col]
            .parse()
            .map_err(|_| err(line_no, format!("bad input tokens {:?}", fields[in_col])))?;
        let output: usize = fields[out_col]
            .parse()
            .map_err(|_| err(line_no, format!("bad output tokens {:?}", fields[out_col])))?;
        rows.push((arrival, input.max(1), output.max(1)));
    }
    if rows.is_empty() {
        return Err(err(0, "no data rows"));
    }
    rows.sort_by(|a, b| a.0.total_cmp(&b.0));
    let t0 = rows[0].0;
    if !(rows[rows.len() - 1].0 - t0).is_finite() {
        return Err(err(0, "arrivals span more than f64 can hold"));
    }
    let requests = rows
        .into_iter()
        .enumerate()
        .map(|(id, (t, input, output))| Request {
            id: id as u64,
            arrival_s: t - t0,
            prompt_len: input,
            output_len: output,
        })
        .collect();
    Ok(Trace { requests })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_public_dataset_shape() {
        let csv = "TIMESTAMP,ContextTokens,GeneratedTokens\n\
                   2023-11-16 18:21:01.500,374,60\n\
                   2023-11-16 18:21:03.250,120,15\n";
        let t = parse_azure_csv(csv).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.requests[0].arrival_s, 0.0);
        assert!((t.requests[1].arrival_s - 1.75).abs() < 1e-9);
        assert_eq!(t.requests[0].prompt_len, 374);
        assert_eq!(t.requests[1].output_len, 15);
    }

    #[test]
    fn parses_numeric_arrivals_and_reorders() {
        let csv = "arrival_s,input_tokens,output_tokens\n3.0,10,5\n1.0,20,6\n";
        let t = parse_azure_csv(csv).unwrap();
        assert_eq!(t.requests[0].prompt_len, 20, "sorted by arrival");
        assert_eq!(t.requests[0].id, 0);
        assert_eq!(t.requests[1].arrival_s, 2.0);
    }

    #[test]
    fn zero_token_rows_are_clamped() {
        let csv = "arrival,input,output\n0,0,0\n";
        let t = parse_azure_csv(csv).unwrap();
        assert_eq!(t.requests[0].prompt_len, 1);
        assert_eq!(t.requests[0].output_len, 1);
    }

    #[test]
    fn helpful_errors_for_bad_input() {
        assert!(parse_azure_csv("").unwrap_err().message.contains("empty"));
        assert!(parse_azure_csv("a,b,c\n").unwrap_err().message.contains("timestamp"));
        let e = parse_azure_csv("arrival,input,output\n1.0,x,2\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bad input tokens"));
        let e = parse_azure_csv("arrival,input,output\n1.0,2\n").unwrap_err();
        assert!(e.message.contains("columns"));
    }

    #[test]
    fn non_finite_arrivals_are_refused() {
        for bad in ["NaN", "inf", "-inf"] {
            let csv = format!("arrival,input,output\n0,5,5\n{bad},6,6\n");
            assert_eq!(parse_azure_csv(&csv).unwrap_err().line, 3, "{bad}");
        }
        let overflow = "arrival,input,output\n1e308,5,5\n-1e308,6,6\n";
        assert_eq!(parse_azure_csv(overflow).unwrap_err().line, 0);
    }

    #[test]
    fn blank_lines_are_skipped() {
        let csv = "arrival,input,output\n0,5,5\n\n1,6,6\n";
        assert_eq!(parse_azure_csv(csv).unwrap().len(), 2);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(4000))]
        /// Any file parses or fails with a structured error, never a
        /// panic; every accepted trace is non-empty and starts at t = 0.
        #[test]
        fn parse_never_panics_on_arbitrary_bytes(
            picks in proptest::collection::vec(0u16..1024, 0..64),
        ) {
            let rows = ["0.5,374,60\n", "2023-11-16 18:21:01.500,120,15\n", "-1e308,0,1\n", "\n"];
            let frags = [
                "timestamp,context,generated\n", "arrival,input,output\n", rows[0], rows[1],
                rows[2], ",", " ", "2023-11-16 ", "18:21:01.5", ":", "0", "1", "1e308", "inf",
                "NaN", "18446744073709551616",
            ];
            // Half the files start with a valid header; half of those hold
            // only whole rows and blank lines, so traces get accepted. The
            // rest mix raw bytes (picks below 256) with fragments.
            let first = picks.first().map_or(1, |&p| usize::from(p));
            let mut bytes = Vec::new();
            if first % 2 == 0 {
                bytes.extend_from_slice(frags[picks.len() % 2].as_bytes());
            }
            for p in picks.iter().map(|&p| usize::from(p)) {
                match (first % 4, p) {
                    (0, _) => bytes.extend_from_slice(rows[p % rows.len()].as_bytes()),
                    (_, 0..=255) => bytes.push(p as u8),
                    _ => bytes.extend_from_slice(frags[p % frags.len()].as_bytes()),
                }
            }
            let csv = String::from_utf8_lossy(&bytes);
            if let Ok(trace) = parse_azure_csv(&csv) {
                proptest::prop_assert_eq!(trace.requests[0].arrival_s, 0.0);
                let mut arrivals = trace.requests.iter().map(|r| r.arrival_s);
                let finite = arrivals.all(|t| t.is_finite() && t >= 0.0);
                proptest::prop_assert!(finite, "{:?}", csv);
            }
        }
    }
}
