//! Reader for the flight recorder (`Skeleton::trace` + `take_trace()`):
//! per-worker busy and idle time from `TaskStart`/`TaskEnd`, and steal
//! latency from `StealRequest` → `StealHit`.

use std::collections::HashMap;
use std::time::Duration;

use yewpar::trace::CONTROL_WORKER;
use yewpar::{TraceEvent, TraceRecord};

/// What one drained trace says about one search.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Flight {
    /// Records drained.
    pub records: u64,
    /// Records the rings dropped while this search ran.  A non-zero value
    /// makes every number below a lower bound; callers exclude such
    /// traces from derived metrics and say so.
    pub dropped: u64,
    /// Seconds workers spent inside tasks (`TaskStart` → `TaskEnd`).
    pub busy_s: f64,
    /// Worker capacity of the search: elapsed time × workers.
    pub capacity_s: f64,
    /// Each `StealRequest` → next `StealHit` on the same worker, in
    /// seconds (a `StealMiss` in between abandons the request).
    pub steal_latencies_s: Vec<f64>,
}

impl Flight {
    /// Seconds the workers of this search spent outside tasks.
    pub fn idle_s(&self) -> f64 {
        (self.capacity_s - self.busy_s).max(0.0)
    }
}

/// Read one search's drained trace.  `elapsed` and `workers` come from the
/// search's `Metrics`; `dropped` is the growth of `trace_dropped()` over
/// the search.
pub fn read(records: &[TraceRecord], workers: usize, elapsed: Duration, dropped: u64) -> Flight {
    let mut open_task: HashMap<u32, u64> = HashMap::new();
    let mut open_steal: HashMap<u32, u64> = HashMap::new();
    let mut busy_ns = 0u64;
    let mut steal_latencies_s = Vec::new();
    for record in records {
        if record.worker == CONTROL_WORKER {
            continue;
        }
        match record.event {
            TraceEvent::TaskStart { .. } => {
                open_task.insert(record.worker, record.ts);
            }
            TraceEvent::TaskEnd { .. } => {
                if let Some(start) = open_task.remove(&record.worker) {
                    busy_ns += record.ts.saturating_sub(start);
                }
            }
            TraceEvent::StealRequest { .. } => {
                open_steal.entry(record.worker).or_insert(record.ts);
            }
            TraceEvent::StealHit { .. } => {
                if let Some(start) = open_steal.remove(&record.worker) {
                    steal_latencies_s.push(record.ts.saturating_sub(start) as f64 * 1e-9);
                }
            }
            TraceEvent::StealMiss { .. } => {
                open_steal.remove(&record.worker);
            }
            _ => {}
        }
    }
    Flight {
        records: records.len() as u64,
        dropped,
        busy_s: busy_ns as f64 * 1e-9,
        capacity_s: elapsed.as_secs_f64() * workers as f64,
        steal_latencies_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ts: u64, worker: u32, event: TraceEvent) -> TraceRecord {
        TraceRecord { ts, worker, event }
    }

    fn task_end() -> TraceEvent {
        TraceEvent::TaskEnd {
            nodes: 1,
            prunes: 0,
            backtracks: 0,
            spawns: 0,
            batch_pushes: 0,
            poll_checks: 0,
            max_depth: 0,
        }
    }

    #[test]
    fn busy_idle_and_steal_latency() {
        let records = vec![
            rec(0, 0, TraceEvent::TaskStart { depth: 0 }),
            rec(10, 1, TraceEvent::StealRequest { victim: 0 }),
            rec(15, 1, TraceEvent::StealMiss { victim: 0 }),
            rec(20, 1, TraceEvent::StealRequest { victim: 0 }),
            rec(
                50,
                1,
                TraceEvent::StealHit {
                    victim: 0,
                    tasks: 1,
                    remote: false,
                },
            ),
            rec(50, 1, TraceEvent::TaskStart { depth: 1 }),
            rec(90, 1, task_end()),
            rec(100, 0, task_end()),
        ];
        let flight = read(&records, 2, Duration::from_nanos(200), 0);
        assert_eq!(flight.records, 8);
        assert!((flight.busy_s - 140e-9).abs() < 1e-15);
        assert!((flight.idle_s() - 260e-9).abs() < 1e-15);
        assert_eq!(flight.steal_latencies_s.len(), 1);
        assert!((flight.steal_latencies_s[0] - 30e-9).abs() < 1e-15);
    }
}
