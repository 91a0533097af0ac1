//! The open-loop load generator: each request goes out when it is due,
//! whatever the replies are doing, and its latency is measured from
//! that due time, so a stall also charges the requests queued behind
//! it. How late the generator itself ran is accounted separately.

use std::io::{self, BufReader};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use amjs_serve::{read_frame, write_frame};

/// A send later than this after its due time counts as late.
pub const LATE_AFTER: Duration = Duration::from_millis(1);

/// How late the generator sent, relative to the schedule.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Lateness {
    pub max: Duration,
    pub late: u64,
    pub sends: u64,
}

impl Lateness {
    /// Account one send that was due at `due` and went out at `sent`
    /// (both offsets from the schedule's origin).
    pub fn note(&mut self, due: Duration, sent: Duration) {
        let lag = sent.saturating_sub(due);
        self.max = self.max.max(lag);
        self.sends += 1;
        if lag > LATE_AFTER {
            self.late += 1;
        }
    }

    pub fn merge(&mut self, other: &Lateness) {
        self.max = self.max.max(other.max);
        self.late += other.late;
        self.sends += other.sends;
    }
}

/// One connection's results: per request, its latency from due time and
/// its reply, in request order; requests past `replies.len()` got none.
pub struct Drive {
    pub replies: Vec<(Duration, String)>,
    pub lateness: Lateness,
}

/// Send `requests` (due offset from `t0`, payload) over `stream` on
/// schedule from one generator thread while this thread reads the
/// replies. A reply slower than `reply_timeout` ends the reading; the
/// unanswered requests are the caller's timeouts.
pub fn drive(
    stream: TcpStream,
    t0: Instant,
    requests: &[(Duration, String)],
    reply_timeout: Duration,
) -> io::Result<Drive> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(reply_timeout))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    thread::scope(|scope| {
        let sender = scope.spawn(move || -> io::Result<Lateness> {
            let mut lateness = Lateness::default();
            for (due, payload) in requests {
                if let Some(wait) = (t0 + *due).checked_duration_since(Instant::now()) {
                    thread::sleep(wait);
                }
                write_frame(&mut writer, payload.as_bytes())?;
                lateness.note(*due, t0.elapsed());
            }
            Ok(lateness)
        });
        let mut replies = Vec::with_capacity(requests.len());
        while replies.len() < requests.len() {
            match read_frame(&mut reader) {
                Ok(payload) => {
                    let latency = t0.elapsed().saturating_sub(requests[replies.len()].0);
                    replies.push((latency, String::from_utf8_lossy(&payload).into_owned()));
                }
                Err(e) => {
                    eprintln!("reply {} not read: {e}", replies.len());
                    break;
                }
            }
        }
        let lateness = sender.join().expect("generator thread panicked")?;
        Ok(Drive { replies, lateness })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lateness_counts_only_sends_past_the_slack() {
        let ms = Duration::from_millis;
        let mut l = Lateness::default();
        l.note(ms(10), ms(10)); // on time
        l.note(ms(20), ms(21)); // exactly the slack: not late
        l.note(ms(30), ms(35)); // 5 ms late
        l.note(ms(40), ms(39)); // early (cannot happen, but never negative)
        assert_eq!(l.late, 1);
        assert_eq!(l.sends, 4);
        assert_eq!(l.max, ms(5));
        let mut m = Lateness::default();
        m.note(ms(0), ms(9));
        m.merge(&l);
        assert_eq!((m.late, m.sends, m.max), (2, 5, ms(9)));
    }

    #[test]
    fn a_stall_charges_the_requests_behind_it() {
        // A server that answers the first request only after 30 ms: the
        // open loop keeps sending, and the second request's latency is
        // measured from its own due time, not from when it was answered
        // relative to its send.
        use std::io::Write;
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut r = BufReader::new(stream.try_clone().unwrap());
            let mut w = stream;
            for i in 0..2 {
                let req = read_frame(&mut r).unwrap();
                if i == 0 {
                    thread::sleep(Duration::from_millis(30));
                }
                write_frame(&mut w, &req).unwrap();
            }
            w.flush().unwrap();
        });
        let stream = TcpStream::connect(addr).unwrap();
        let t0 = Instant::now();
        let reqs = vec![
            (Duration::ZERO, "a".to_string()),
            (Duration::from_millis(5), "b".to_string()),
        ];
        let d = drive(stream, t0, &reqs, Duration::from_secs(5)).unwrap();
        server.join().unwrap();
        assert_eq!(d.replies.len(), 2);
        assert_eq!(d.replies[0].1, "a");
        assert_eq!(d.replies[1].1, "b");
        assert!(d.replies[0].0 >= Duration::from_millis(30));
        // Due at 5 ms, answered after the 30 ms stall: at least 25 ms.
        assert!(d.replies[1].0 >= Duration::from_millis(25));
        assert_eq!(d.lateness.sends, 2);
    }
}
