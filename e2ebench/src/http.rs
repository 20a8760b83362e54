//! A minimal HTTP/1.1 client for the ops plane: one connection per
//! request, `Connection: close`, body read to end of stream.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// How long one request may take before it counts as failed.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

/// A response: status code and body.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body text.
    pub body: String,
}

/// Sends one request to `addr` and reads the whole response.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<Response, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_read_timeout(Some(REQUEST_TIMEOUT)).ok();
    stream.set_write_timeout(Some(REQUEST_TIMEOUT)).ok();
    stream.set_nodelay(true).ok();
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .map_err(|e| format!("{method} {path}: send: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("{method} {path}: receive: {e}"))?;
    parse_response(&String::from_utf8_lossy(&raw))
        .ok_or_else(|| format!("{method} {path}: malformed response"))
}

fn parse_response(text: &str) -> Option<Response> {
    let (head, body) = text.split_once("\r\n\r\n")?;
    let status = head.split_whitespace().nth(1)?.parse().ok()?;
    Some(Response {
        status,
        body: body.to_string(),
    })
}

/// The value of the string field `key` in a flat JSON object body.
pub fn str_field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let start = body.find(&format!("\"{key}\":\""))? + key.len() + 4;
    let len = body[start..].find('"')?;
    Some(&body[start..start + len])
}

/// The value of the leading `"id":N` field of a job resource.
pub fn job_id(body: &str) -> Option<u64> {
    let rest = body.strip_prefix("{\"id\":")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// The `record` object of a job resource: the server puts it last, so it
/// runs from `"record":` to the resource's closing brace.
pub fn job_record(body: &str) -> Option<&str> {
    let start = body.find(",\"record\":")? + ",\"record\":".len();
    body[start..].strip_suffix('}')
}

/// The value of an unlabelled or labelled sample line `name VALUE` in a
/// Prometheus text exposition.
pub fn prometheus_sample(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_body() {
        let r = parse_response("HTTP/1.1 202 Accepted\r\nContent-Length: 2\r\n\r\n{}").unwrap();
        assert_eq!(r.status, 202);
        assert_eq!(r.body, "{}");
        assert_eq!(parse_response("garbage"), None);
    }

    #[test]
    fn slices_job_fields() {
        let body = "{\"id\":1042,\"state\":\"done\",\"spec\":{\"problem\":\"tsp\"},\
                    \"record\":{\"schema\":\"anneal-job-record\",\"x\":{\"y\":1}}}";
        assert_eq!(job_id(body), Some(1042));
        assert_eq!(str_field(body, "state"), Some("done"));
        assert_eq!(
            job_record(body),
            Some("{\"schema\":\"anneal-job-record\",\"x\":{\"y\":1}}")
        );
        assert_eq!(job_record("{\"id\":1,\"state\":\"queued\"}"), None);
    }

    #[test]
    fn reads_prometheus_samples() {
        let text = "# TYPE jobs_state gauge\njobs_state{state=\"queued\"} 3\n\
                    jobs_state{state=\"running\"} 2\n";
        assert_eq!(
            prometheus_sample(text, "jobs_state{state=\"queued\"}"),
            Some(3.0)
        );
        assert_eq!(prometheus_sample(text, "jobs_state{state=\"done\"}"), None);
    }
}
