//! The Disruptor redesign of PvWatts (§6.3, Fig. 9, Table 1).
//!
//! "Our Disruptor version of PvWatts parallelizes the PvWatts program into
//! a two-phase workflow ... a single producer and multiple consumers ...
//! To reduce the workload of the reducer loop and improve the parallelism,
//! we assign a separate month to each consumer. Thus, each consumer just
//! needs to process the PvWatts tuples of one month and puts these tuples
//! into its own Gamma database. Besides, the consumer also creates one
//! corresponding SumMonth tuple for each PvWatts tuple and inserts this
//! tuple into the Delta tree. When a consumer receives the sentinel tuple,
//! it processes the SumMonth tuple from its own Delta tree, which triggers
//! the reducer loop to query the PvWatts tuples in the Gamma table."
//!
//! Fidelity note: each consumer here really does own a JStar Gamma store
//! (a hash-indexed `TableStore`) and a JStar Delta tree, creates real
//! tuples, and answers the final aggregation with the `Statistics` reducer
//! over its local Gamma — the exact Fig. 9 structure, not a shortcut map.

use crate::pvwatts::data::parse_record;
use crate::pvwatts::{PvWatts, SumMonth};
use jstar_core::delta::DeltaTree;
use jstar_core::gamma::{HashStore, TableStore};
use jstar_core::orderby::{KeyPart, OrderKey};
use jstar_core::prelude::*;
use jstar_core::schema::TableDefBuilder;
use jstar_disruptor::{Disruptor, WaitStrategyKind};
use std::ops::ControlFlow;
use std::sync::Arc;

/// The ring-buffer event: one PvWatts record, recycled in place.
#[derive(Debug, Clone, Copy, Default)]
pub struct PvEvent {
    pub year: i32,
    pub month: i32,
    pub day: i32,
    pub hour: i32,
    pub power: i64,
    /// End-of-input marker (the paper's sentinel tuple).
    pub sentinel: bool,
}

/// Tuning knobs — the rows of Table 1.
#[derive(Debug, Clone, Copy)]
pub struct DisruptorConfig {
    /// "Total number of Consumer: 12" — one per month by default.
    pub consumers: usize,
    /// "Size of Ring Buffer: 1024."
    pub ring_size: usize,
    /// "Claim slots in a batch of 256."
    pub batch: usize,
    /// "Wait Strategy: BlockingWaitStrategy."
    pub wait: WaitStrategyKind,
}

impl Default for DisruptorConfig {
    fn default() -> Self {
        DisruptorConfig {
            consumers: 12,
            ring_size: 1024,
            batch: 256,
            wait: WaitStrategyKind::Blocking,
        }
    }
}

/// One consumer's private JStar state — "its own Gamma database" and "its
/// own Delta tree" (Fig. 9).
struct ConsumerState {
    pv_def: Arc<TableDef>,
    gamma: HashStore,
    delta: DeltaTree,
    sum_def: Arc<TableDef>,
}

impl ConsumerState {
    fn new() -> Self {
        let pv_def = Arc::new(
            TableDefBuilder::standalone("PvWatts")
                .col_int("year")
                .col_int("month")
                .col_int("day")
                .col_int("hour")
                .col_int("power")
                .orderby(&[jstar_core::orderby::strat("PvWatts")])
                .build_def(TableId(0)),
        );
        let sum_def = Arc::new(
            TableDefBuilder::standalone("SumMonth")
                .col_int("year")
                .col_int("month")
                .orderby(&[jstar_core::orderby::strat("SumMonth")])
                .build_def(TableId(1)),
        );
        ConsumerState {
            gamma: HashStore::new(
                Arc::clone(&pv_def),
                vec![PvWatts::year.index(), PvWatts::month.index()],
            ),
            pv_def,
            delta: DeltaTree::new(),
            sum_def,
        }
    }

    /// Phase-1 work per claimed event: create the PvWatts tuple, insert it
    /// into the local Gamma, and stage the (deduplicated) SumMonth tuple
    /// in the local Delta tree. Rows are encoded through the typed
    /// relations, so the field layout lives in one declaration.
    fn absorb(&mut self, ev: &PvEvent) {
        let row = PvWatts {
            year: ev.year as i64,
            month: ev.month as i64,
            day: ev.day as i64,
            hour: ev.hour as i64,
            power: ev.power,
        };
        self.gamma
            .insert(Tuple::new(self.pv_def.id, row.into_values()));
        let sum = Tuple::new(
            self.sum_def.id,
            SumMonth {
                year: ev.year as i64,
                month: ev.month as i64,
            }
            .into_values(),
        );
        // SumMonth orderby (SumMonth): a single stratum key.
        self.delta
            .insert(&OrderKey::from_parts([KeyPart::Strat(1)]), sum);
    }

    /// Phase-2 work on the sentinel: pop the SumMonth tuples from the
    /// local Delta tree and run the Statistics reducer over the local
    /// Gamma for each month.
    fn finish(mut self) -> Vec<(i64, i64, f64)> {
        let mut out = Vec::new();
        while let Some((_, class)) = self.delta.pop_min_class() {
            for sm in class {
                let sm = SumMonth::from_tuple(&sm);
                let q = PvWatts::query()
                    .eq(PvWatts::year, sm.year)
                    .eq(PvWatts::month, sm.month)
                    .lower(self.pv_def.id);
                let mut stats = jstar_core::reduce::Stats::empty();
                self.gamma.query(q.probe(), &mut |t| {
                    stats.add(t.int(PvWatts::power.index()) as f64);
                    true
                });
                out.push((sm.year, sm.month, stats.mean()));
            }
        }
        out.sort_by_key(|a| (a.0, a.1));
        out
    }
}

/// Runs the two-phase Disruptor workflow over raw CSV bytes, returning the
/// monthly means sorted by (year, month).
///
/// Each consumer claims every event from the ring (broadcast) but absorbs
/// only the months assigned to it (`(month-1) % consumers == index`),
/// mirroring "each consumer just needs to process the PvWatts tuples of
/// one month".
pub fn run(data: &[u8], cfg: DisruptorConfig) -> Vec<(i64, i64, f64)> {
    assert!(cfg.consumers >= 1);
    assert!(cfg.batch >= 1);
    let mut d = Disruptor::<PvEvent>::new(cfg.ring_size, cfg.wait);
    let consumers: Vec<_> = (0..cfg.consumers).map(|_| d.add_consumer()).collect();
    let mut producer = d.into_producer();

    let mut merged: Vec<(i64, i64, f64)> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = consumers
            .into_iter()
            .enumerate()
            .map(|(idx, consumer)| {
                let n = cfg.consumers;
                s.spawn(move || {
                    let mut state = ConsumerState::new();
                    consumer.run(|ev: &PvEvent, _seq| {
                        if ev.sentinel {
                            return ControlFlow::Break(());
                        }
                        if (ev.month as usize - 1) % n == idx {
                            state.absorb(ev);
                        }
                        ControlFlow::Continue(())
                    });
                    state.finish()
                })
            })
            .collect();

        // Producer phase: parse and publish in claim batches.
        let mut batch_buf: Vec<PvEvent> = Vec::with_capacity(cfg.batch);
        let flush = |producer: &mut jstar_disruptor::SingleProducer<PvEvent>,
                     buf: &mut Vec<PvEvent>| {
            if buf.is_empty() {
                return;
            }
            producer.publish_batch(buf.len(), |i, slot| *slot = buf[i]);
            buf.clear();
        };
        for rec in jstar_csv::records(data) {
            if let Some(r) = parse_record(&rec) {
                batch_buf.push(PvEvent {
                    year: r.year as i32,
                    month: r.month as i32,
                    day: r.day as i32,
                    hour: r.hour as i32,
                    power: r.power,
                    sentinel: false,
                });
                if batch_buf.len() == cfg.batch.min(producer.capacity()) {
                    flush(&mut producer, &mut batch_buf);
                }
            }
        }
        flush(&mut producer, &mut batch_buf);
        producer.publish(|slot| {
            *slot = PvEvent {
                sentinel: true,
                ..Default::default()
            }
        });

        for h in handles {
            merged.extend(h.join().expect("consumer thread"));
        }
    });

    merged.sort_by_key(|a| (a.0, a.1));
    merged
}

/// Multi-producer variant: the claim-strategy alternative of Table 1.
///
/// The CSV is split into `producers` Hadoop-style regions (the same
/// protocol the JStar reader rules use); each producer parses its region
/// and publishes through the shared multi-producer ring. Consumers are
/// unchanged. Demonstrates that the parallelism structure (1×N vs M×N) is
/// swappable without touching the consumer logic — the paper's
/// experimentation philosophy applied to the Disruptor redesign.
pub fn run_multi_producer(
    data: &[u8],
    producers: usize,
    cfg: DisruptorConfig,
) -> Vec<(i64, i64, f64)> {
    use jstar_disruptor::MultiDisruptorBuilder;
    assert!(producers >= 1 && cfg.consumers >= 1);
    let (producer_handles, consumer_handles) = MultiDisruptorBuilder::new(cfg.ring_size, cfg.wait)
        .build::<PvEvent>(producers, cfg.consumers);

    let regions = jstar_csv::split_regions(data.len(), producers);
    let mut merged: Vec<(i64, i64, f64)> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = consumer_handles
            .into_iter()
            .enumerate()
            .map(|(idx, consumer)| {
                let n = cfg.consumers;
                let total_producers = regions.len();
                s.spawn(move || {
                    let mut state = ConsumerState::new();
                    let mut sentinels = 0usize;
                    consumer.run(|ev: &PvEvent, _seq| {
                        if ev.sentinel {
                            sentinels += 1;
                            return if sentinels == total_producers {
                                ControlFlow::Break(())
                            } else {
                                ControlFlow::Continue(())
                            };
                        }
                        if (ev.month as usize - 1) % n == idx {
                            state.absorb(ev);
                        }
                        ControlFlow::Continue(())
                    });
                    state.finish()
                })
            })
            .collect();

        for (producer, (start, end)) in producer_handles.into_iter().zip(regions.iter().copied()) {
            s.spawn(move || {
                let reader = jstar_csv::RegionReader::new(data, start, end);
                for rec in reader.records() {
                    if let Some(r) = parse_record(&rec) {
                        producer.publish(|slot| {
                            *slot = PvEvent {
                                year: r.year as i32,
                                month: r.month as i32,
                                day: r.day as i32,
                                hour: r.hour as i32,
                                power: r.power,
                                sentinel: false,
                            }
                        });
                    }
                }
                producer.publish(|slot| {
                    *slot = PvEvent {
                        sentinel: true,
                        ..Default::default()
                    }
                });
            });
        }

        for h in handles {
            merged.extend(h.join().expect("consumer thread"));
        }
    });
    merged.sort_by_key(|a| (a.0, a.1));
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pvwatts::data::{expected_means, generate_records, render_csv, InputOrder};

    fn check(order: InputOrder, cfg: DisruptorConfig) {
        let recs = generate_records(8760, order);
        let csv = render_csv(&recs);
        let got = run(&csv, cfg);
        let want = expected_means(&recs);
        assert_eq!(got, want);
    }

    #[test]
    fn matches_ground_truth_default_config() {
        check(InputOrder::Chronological, DisruptorConfig::default());
    }

    #[test]
    fn matches_on_round_robin_input() {
        check(InputOrder::RoundRobin, DisruptorConfig::default());
    }

    #[test]
    fn works_with_fewer_consumers_than_months() {
        check(
            InputOrder::Chronological,
            DisruptorConfig {
                consumers: 3,
                ..Default::default()
            },
        );
    }

    #[test]
    fn works_with_tiny_ring_and_batch() {
        check(
            InputOrder::Chronological,
            DisruptorConfig {
                consumers: 2,
                ring_size: 16,
                batch: 4,
                wait: WaitStrategyKind::Yielding,
            },
        );
    }

    #[test]
    fn all_wait_strategies_agree() {
        let recs = generate_records(2000, InputOrder::Chronological);
        let csv = render_csv(&recs);
        let want = expected_means(&recs);
        for wait in WaitStrategyKind::all() {
            let cfg = DisruptorConfig {
                consumers: 4,
                wait,
                ..Default::default()
            };
            assert_eq!(run(&csv, cfg), want, "{}", wait.name());
        }
    }

    #[test]
    fn multi_producer_matches_ground_truth() {
        let recs = generate_records(8760, InputOrder::Chronological);
        let csv = render_csv(&recs);
        let want = expected_means(&recs);
        for producers in [1usize, 2, 4] {
            let got = run_multi_producer(
                &csv,
                producers,
                DisruptorConfig {
                    consumers: 4,
                    wait: WaitStrategyKind::Yielding,
                    ..Default::default()
                },
            );
            assert_eq!(got, want, "{producers} producers");
        }
    }

    #[test]
    fn multi_producer_agrees_with_single() {
        let recs = generate_records(4000, InputOrder::RoundRobin);
        let csv = render_csv(&recs);
        let single = run(&csv, DisruptorConfig::default());
        let multi = run_multi_producer(&csv, 3, DisruptorConfig::default());
        assert_eq!(single, multi);
    }

    #[test]
    fn multi_year_months_stay_separate() {
        let recs = generate_records(8760 * 2 + 500, InputOrder::Chronological);
        let csv = render_csv(&recs);
        let got = run(&csv, DisruptorConfig::default());
        assert_eq!(got, expected_means(&recs));
        // 12 months of year 2000, 12 of 2001, 1 partial of 2002.
        assert_eq!(got.len(), 25);
    }
}
