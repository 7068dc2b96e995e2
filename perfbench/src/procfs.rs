//! Peak memory and CPU time of this process, read from `/proc` with the
//! standard library only.

use std::time::Duration;

/// Clock ticks per second of the `/proc/<pid>/stat` time fields
/// (`USER_HZ`, fixed at 100 in the Linux user-space ABI).
const USER_HZ: u64 = 100;

/// Peak resident set size (`VmHWM`) in bytes, parsed from the text of
/// `/proc/self/status`.
pub fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut words = line["VmHWM:".len()..].split_whitespace();
    let value: u64 = words.next()?.parse().ok()?;
    match words.next()? {
        "kB" => value.checked_mul(1024),
        _ => None,
    }
}

/// User plus system CPU time of all threads, parsed from the text of
/// `/proc/self/stat` (fields 14 and 15, counted in `USER_HZ` ticks).
pub fn parse_cpu_time(stat: &str) -> Option<Duration> {
    // The command name (field 2) may contain spaces and parentheses, so
    // count fields from the last ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `fields[0]` is field 3 (state), so field k sits at k − 3.
    let utime: u64 = fields.get(14 - 3)?.parse().ok()?;
    let stime: u64 = fields.get(15 - 3)?.parse().ok()?;
    let ticks = utime.checked_add(stime)?;
    Some(Duration::from_nanos(
        ticks.checked_mul(1_000_000_000 / USER_HZ)?,
    ))
}

/// The `Udp: RcvbufErrors` counter (datagrams the kernel dropped for lack
/// of receive-buffer space), parsed from the text of `/proc/net/snmp`.
/// The counter covers the whole network namespace.
pub fn parse_udp_rcvbuf_errors(snmp: &str) -> Option<u64> {
    let mut udp = snmp.lines().filter(|l| l.starts_with("Udp:"));
    let header = udp.next()?;
    let values = udp.next()?;
    let col = header
        .split_whitespace()
        .position(|h| h == "RcvbufErrors")?;
    values.split_whitespace().nth(col)?.parse().ok()
}

/// This process's peak resident set size in bytes.
pub fn peak_rss_bytes() -> Option<u64> {
    parse_vm_hwm(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// This process's CPU time so far (all threads, user + system).
pub fn cpu_time() -> Option<Duration> {
    parse_cpu_time(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// Datagrams the kernel dropped so far for lack of receive-buffer space.
pub fn udp_rcvbuf_errors() -> Option<u64> {
    parse_udp_rcvbuf_errors(&std::fs::read_to_string("/proc/net/snmp").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_vm_hwm_in_bytes() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  300000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(12345 * 1024));
    }

    #[test]
    fn vm_hwm_missing_or_malformed_is_none() {
        assert_eq!(parse_vm_hwm("Name:\tx\nVmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn reads_utime_plus_stime() {
        // Fields 14 and 15 are 250 and 50 ticks: 3 s of CPU.
        let stat = "4242 (perf bench) (x) R 1 4242 4242 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0 1000 1000000 200";
        assert_eq!(parse_cpu_time(stat), Some(Duration::from_secs(3)));
    }

    #[test]
    fn truncated_stat_is_none() {
        assert_eq!(parse_cpu_time("4242 (x) R 1 2 3"), None);
        assert_eq!(parse_cpu_time("no parenthesis here"), None);
    }

    #[test]
    fn reads_udp_receive_buffer_errors() {
        let snmp = "Ip: Forwarding DefaultTTL\nIp: 1 64\n\
Udp: InDatagrams NoPorts InErrors OutDatagrams RcvbufErrors SndbufErrors\n\
Udp: 9230592 112 3962901 13194893 3962901 0\n\
UdpLite: InDatagrams NoPorts InErrors OutDatagrams RcvbufErrors SndbufErrors\n\
UdpLite: 0 0 0 0 7 0\n";
        assert_eq!(parse_udp_rcvbuf_errors(snmp), Some(3962901));
        assert_eq!(parse_udp_rcvbuf_errors("Ip: a\nIp: 1\n"), None);
    }

    #[test]
    fn live_process_reports_memory_and_cpu() {
        assert!(peak_rss_bytes().is_some_and(|b| b > 0));
        assert!(cpu_time().is_some());
    }
}
