//! The trace schema: what the simulator can record, at which verbosity
//! level each kind is captured, and — once per kind, in the
//! `trace_schema!` table — the tag, Chrome presentation and ordered field
//! list that [`crate::sink`] renders from and [`crate::parse`] reads
//! back by.

use dynp_des::SimTime;

/// Verbosity of a [`Tracer`](crate::Tracer). Levels are cumulative: each
/// level records everything the previous one does.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TraceLevel {
    /// Record nothing (the zero-overhead default).
    #[default]
    Off,
    /// The semantic audit trail: decider verdicts, policy switches,
    /// reservation admission verdicts.
    Decisions,
    /// Plus timing: per-policy plan construction and RAII phase spans
    /// with wall-clock durations.
    Spans,
    /// Plus the firehose: every sim-event dispatch and every backfill
    /// move.
    All,
}

impl TraceLevel {
    /// Parses a level name as accepted by `--trace-level`.
    pub fn parse(s: &str) -> Option<TraceLevel> {
        match s.to_ascii_lowercase().as_str() {
            "off" => Some(TraceLevel::Off),
            "decisions" => Some(TraceLevel::Decisions),
            "spans" => Some(TraceLevel::Spans),
            "all" => Some(TraceLevel::All),
            _ => None,
        }
    }

    /// Display name (round-trips through [`TraceLevel::parse`]).
    pub(crate) fn name(self) -> &'static str {
        match self {
            TraceLevel::Off => "off",
            TraceLevel::Decisions => "decisions",
            TraceLevel::Spans => "spans",
            TraceLevel::All => "all",
        }
    }
}

/// The capture class of an event — which [`TraceLevel`] first records it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceClass {
    /// Captured from [`TraceLevel::Decisions`] up.
    Decision,
    /// Captured from [`TraceLevel::Spans`] up.
    Span,
    /// Captured only at [`TraceLevel::All`].
    Dispatch,
}

impl TraceClass {
    /// True when `level` captures this class.
    pub(crate) fn captured_at(self, level: TraceLevel) -> bool {
        match self {
            TraceClass::Decision => level >= TraceLevel::Decisions,
            TraceClass::Span => level >= TraceLevel::Spans,
            TraceClass::Dispatch => level >= TraceLevel::All,
        }
    }
}

/// What an event kind declares about itself besides its fields — one
/// row of the `trace_schema!` table.
pub(crate) struct Kind {
    /// The JSONL `"type"` tag (stable format contract).
    pub tag: &'static str,
    /// Which [`TraceLevel`] first records the kind.
    pub class: TraceClass,
    /// Chrome-trace `cat`.
    pub chrome_cat: &'static str,
    /// Chrome-trace `name`; `{key}` stands for that field's value.
    pub chrome_name: &'static str,
    /// Chrome-trace scope `s` of the instant event: `"g"` marks the whole
    /// timeline, `"t"` the one track. Empty for kinds with a `dur_ns`
    /// field, which render as complete events and have no scope.
    pub chrome_scope: &'static str,
}

/// One entry of a kind's ordered field list.
pub(crate) struct Field {
    /// The JSON key (the variant's field name).
    pub key: &'static str,
    /// Value to read when a trace written before the field existed lacks
    /// the key.
    pub default: Option<u32>,
}

/// Receives an event's fields in declaration order
/// ([`TraceEvent::write_fields`]); one method per field kind.
pub(crate) trait FieldWriter<L> {
    fn label(&mut self, key: &'static str, value: &L);
    fn u64(&mut self, key: &'static str, value: &u64);
    fn u32(&mut self, key: &'static str, value: &u32) {
        self.u64(key, &u64::from(*value));
    }
    fn scores(&mut self, key: &'static str, value: &[(L, f64)]);
}

/// Supplies an event's fields in declaration order
/// ([`TraceEvent::read_fields`]); one method per field kind.
pub(crate) trait FieldReader<L> {
    fn label(&mut self, field: &Field) -> Result<L, String>;
    fn u64(&mut self, field: &Field) -> Result<u64, String>;
    fn u32(&mut self, field: &Field) -> Result<u32, String> {
        u32::try_from(self.u64(field)?)
            .map_err(|_| format!("field '{}' out of u32 range", field.key))
    }
    fn scores(&mut self, field: &Field) -> Result<Vec<(L, f64)>, String>;
}

/// One structured observation of the running simulation.
///
/// Policies, decider rules and admission verdicts cross the crate
/// boundary as `&'static str` labels so this crate stays below `rms` and
/// `core` in the dependency order (see the crate docs) and recording
/// allocates nothing; a trace read back from JSONL is the same type with
/// owned labels ([`ParsedEvent`](crate::ParsedEvent)).
///
/// Adding a kind is this variant plus its row in the `trace_schema!`
/// table below (and its entry in the test samples); the sinks and the
/// parser follow from the row.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent<L = &'static str> {
    /// A simulation event was dispatched by the driver loop. `kind` is
    /// the driver's label (`"arrive"`, `"finish"`, `"res_request"`, …)
    /// and `id` the job or request id it concerns.
    SimEvent {
        /// Driver event label.
        kind: L,
        /// Job or request id the event concerns.
        id: u64,
    },
    /// One per-policy plan was constructed during a self-tuning step.
    PlanBuilt {
        /// The candidate policy the queue was ordered by.
        policy: L,
        /// Waiting-queue depth at planning time.
        queue_depth: u32,
        /// Number of points in the shared base capacity profile — the
        /// size of the structure `earliest_fit` descends.
        profile_points: u32,
        /// Worker threads the step's plan fan-out ran on (1 when the
        /// batch stayed sequential, and for traces written before the
        /// field existed). Per-policy `dur_ns` values overlap in wall
        /// time when this exceeds 1, so phase attribution must divide
        /// by it.
        workers: u32,
        /// Wall-clock nanoseconds the plan construction took.
        dur_ns: u64,
    },
    /// A decider ran: its input vector, the incumbent, the verdict, and
    /// which rule of the decider produced it.
    Decision {
        /// Policy active before the decision.
        old: L,
        /// Policy the decider chose.
        verdict: L,
        /// The decider rule that fired (e.g. `"argmin"`,
        /// `"stay-incumbent-tied"`, `"preferred-holds"`).
        rule: L,
        /// Per-policy scores handed to the decider (lower = better), in
        /// candidate order (NaN where a sink wrote `null`).
        scores: Vec<(L, f64)>,
    },
    /// The active policy changed (recorded in addition to the
    /// [`TraceEvent::Decision`] that caused it).
    PolicySwitch {
        /// Policy switched away from.
        from: L,
        /// Policy switched to.
        to: L,
    },
    /// The admission controller decided a reservation request.
    AdmissionVerdict {
        /// Request id from the request stream.
        request: u32,
        /// `"admitted"` or a `RejectReason` label
        /// (`"no-capacity"`, `"breaks-guarantee"`, …).
        verdict: L,
    },
    /// A job started while jobs submitted earlier stayed waiting — an
    /// implicit-backfilling move.
    BackfillMove {
        /// The job that jumped ahead.
        job: u32,
        /// Its processor width.
        width: u32,
        /// How many earlier-submitted jobs it overtook.
        overtaken: u32,
    },
    /// A named wall-clock phase measured by an RAII
    /// [`SpanGuard`](crate::SpanGuard) (`"step"`, `"prepare"`,
    /// `"admission"`, `"event"`, …).
    Span {
        /// Phase name.
        name: L,
        /// Wall-clock nanoseconds the phase took.
        dur_ns: u64,
    },
    /// A node failed and left the usable machine.
    NodeDown {
        /// Node (processor) index that went down.
        node: u32,
    },
    /// A failed node was repaired and rejoined the usable machine.
    NodeUp {
        /// Node (processor) index that came back.
        node: u32,
    },
    /// A running job attempt failed (`"node-loss"`, `"crash"`,
    /// `"overrun"`) and was evicted from the machine.
    JobFault {
        /// The failed job.
        job: u32,
        /// Which attempt failed (1 = first execution).
        attempt: u32,
        /// Failure cause label.
        reason: L,
    },
    /// A failed job was requeued for another attempt after backoff.
    JobRetry {
        /// The retried job.
        job: u32,
        /// The attempt that just failed.
        attempt: u32,
        /// Backoff delay before the resubmission, in milliseconds.
        delay_ms: u64,
    },
    /// A failed job exhausted its retry budget and left the system.
    JobLost {
        /// The lost job.
        job: u32,
        /// How many attempts were made in total.
        attempts: u32,
    },
    /// Schedule repair changed an admitted reservation window after a
    /// capacity loss (`"downgraded"` or `"revoked"`).
    ReservationRepair {
        /// Book id of the repaired window.
        reservation: u32,
        /// What repair did to it.
        action: L,
        /// Width after the repair (0 when revoked).
        width: u32,
    },
    /// The federation router dispatched an arriving job to a cluster.
    JobRouted {
        /// The routed job (global dense id).
        job: u32,
        /// Cluster the job was submitted at.
        from: u32,
        /// Cluster the job was dispatched to.
        to: u32,
        /// Transfer latency paid (0 when routed locally), milliseconds.
        transfer_ms: u64,
    },
    /// A waiting job was withdrawn from this cluster's queue for
    /// migration (recorded on the *origin* cluster's tracer).
    MigrateDepart {
        /// The migrating job (global dense id).
        job: u32,
        /// Origin cluster.
        from: u32,
        /// Destination cluster.
        to: u32,
    },
    /// A migrated job arrived and entered this cluster's queue (recorded
    /// on the *destination* cluster's tracer).
    MigrateArrive {
        /// The migrated job (global dense id).
        job: u32,
        /// Origin cluster.
        from: u32,
        /// Destination cluster.
        to: u32,
    },
    /// The service daemon wrote a checkpoint of the full simulation state.
    CheckpointWritten {
        /// Journal sequence number the checkpoint covers (every journaled
        /// command with `seq <= journal_seq` is baked into it).
        journal_seq: u64,
        /// Serialized checkpoint size on disk.
        bytes: u64,
    },
    /// Recovery loaded a checkpoint and will replay the journal suffix.
    CheckpointLoaded {
        /// Journal sequence number the checkpoint covered.
        journal_seq: u64,
        /// Journaled commands replayed on top of it.
        replayed: u64,
    },
    /// The journal writer sealed a segment and opened the next one.
    JournalRotated {
        /// Index of the newly opened segment.
        segment: u32,
        /// Size of the sealed segment.
        bytes: u64,
    },
    /// Overload control rejected a submission because its user exceeded
    /// the admission quota or the fair queue share.
    QuotaRejected {
        /// User id of the rejected submission.
        user: u32,
        /// Waiting-queue depth at rejection time.
        queue_depth: u32,
    },
}

/// Generates everything that depends on the event kind from one row per
/// variant: its JSONL tag, capture class, Chrome `(cat, name[, scope])`
/// and the ordered `key: kind [= default]` field list, with kind one of
/// `label`, `u32`, `u64`, `scores`. A row that disagrees with its
/// variant (a missing or misspelled field, the wrong kind) or a variant
/// without a row does not compile.
macro_rules! trace_schema {
    ($(
        $variant:ident = $tag:literal, $class:ident, chrome($cat:literal, $name:literal $(, $scope:literal)?) {
            $( $field:ident: $fk:ident $(= $default:literal)? ),*
        }
    )*) => {
        impl<L> TraceEvent<L> {
            pub(crate) fn kind(&self) -> &'static Kind {
                match self {
                    $( TraceEvent::$variant { .. } => &Kind {
                        tag: $tag,
                        class: TraceClass::$class,
                        chrome_cat: $cat,
                        chrome_name: $name,
                        chrome_scope: concat!($($scope)?),
                    }, )*
                }
            }

            /// Hands every field to `w`, in row order.
            pub(crate) fn write_fields(&self, w: &mut impl FieldWriter<L>) {
                match self {
                    $( TraceEvent::$variant { $($field),* } => {
                        $( w.$fk(stringify!($field), $field); )*
                    } )*
                }
            }

            /// Builds the kind tagged `tag` from the fields `r` supplies,
            /// in row order; `None` for an unknown tag.
            pub(crate) fn read_fields(
                tag: &str,
                r: &mut impl FieldReader<L>,
            ) -> Result<Option<Self>, String> {
                Ok(Some(match tag {
                    $( $tag => TraceEvent::$variant {
                        $( $field: r.$fk(&Field {
                            key: stringify!($field),
                            default: None $(.or(Some($default)))?,
                        })?, )*
                    }, )*
                    _ => return Ok(None),
                }))
            }
        }
    };
}

trace_schema! {
    SimEvent = "sim_event", Dispatch, chrome("dispatch", "event:{kind}", "t") {
        kind: label, id: u64
    }
    PlanBuilt = "plan", Span, chrome("plan", "plan:{policy}") {
        policy: label, queue_depth: u32, profile_points: u32, workers: u32 = 1, dur_ns: u64
    }
    Decision = "decision", Decision, chrome("decision", "decide", "t") {
        old: label, verdict: label, rule: label, scores: scores
    }
    PolicySwitch = "switch", Decision, chrome("decision", "switch {from}->{to}", "g") {
        from: label, to: label
    }
    AdmissionVerdict = "admission", Decision, chrome("admission", "admission:{verdict}", "t") {
        request: u32, verdict: label
    }
    BackfillMove = "backfill", Dispatch, chrome("dispatch", "backfill:j{job}", "t") {
        job: u32, width: u32, overtaken: u32
    }
    Span = "span", Span, chrome("phase", "{name}") { name: label, dur_ns: u64 }
    NodeDown = "node_down", Dispatch, chrome("fault", "node_down", "g") { node: u32 }
    NodeUp = "node_up", Dispatch, chrome("fault", "node_up", "g") { node: u32 }
    JobFault = "job_fault", Decision, chrome("fault", "fault:{reason}", "t") {
        job: u32, attempt: u32, reason: label
    }
    JobRetry = "job_retry", Decision, chrome("fault", "retry:j{job}", "t") {
        job: u32, attempt: u32, delay_ms: u64
    }
    JobLost = "job_lost", Decision, chrome("fault", "lost:j{job}", "g") { job: u32, attempts: u32 }
    ReservationRepair = "res_repair", Decision, chrome("fault", "repair:{action}", "t") {
        reservation: u32, action: label, width: u32
    }
    JobRouted = "route", Decision, chrome("federation", "route:j{job}", "t") {
        job: u32, from: u32, to: u32, transfer_ms: u64
    }
    MigrateDepart = "migrate_depart", Decision, chrome("federation", "migrate_depart:j{job}", "t") {
        job: u32, from: u32, to: u32
    }
    MigrateArrive = "migrate_arrive", Decision, chrome("federation", "migrate_arrive:j{job}", "t") {
        job: u32, from: u32, to: u32
    }
    CheckpointWritten = "checkpoint", Decision, chrome("durability", "checkpoint", "g") {
        journal_seq: u64, bytes: u64
    }
    CheckpointLoaded = "ckpt_load", Decision, chrome("durability", "ckpt_load", "g") {
        journal_seq: u64, replayed: u64
    }
    JournalRotated = "rotate", Decision, chrome("durability", "rotate:s{segment}", "t") {
        segment: u32, bytes: u64
    }
    QuotaRejected = "quota", Decision, chrome("durability", "quota:u{user}", "t") {
        user: u32, queue_depth: u32
    }
}

impl<L> TraceEvent<L> {
    /// The capture class of this event.
    pub(crate) fn class(&self) -> TraceClass {
        self.kind().class
    }

    /// Short type tag used by the JSONL sink (stable format contract).
    pub fn type_tag(&self) -> &'static str {
        self.kind().tag
    }
}

/// A recorded event with its position on both clocks: the simulation
/// clock (`sim`) and the host wall clock (`wall_ns`, nanoseconds since
/// the tracer was created). For span-like events `wall_ns` is the span
/// *start*; the duration lives in the event itself.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRecord<L = &'static str> {
    /// Monotone sequence number (records are totally ordered even at
    /// equal timestamps).
    pub seq: u64,
    /// Simulation time the event happened at.
    pub sim: SimTime,
    /// Wall-clock nanoseconds since tracer creation (span start for
    /// span-like events).
    pub wall_ns: u64,
    /// The event.
    pub event: TraceEvent<L>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_cumulative() {
        assert!(TraceLevel::Off < TraceLevel::Decisions);
        assert!(TraceLevel::Decisions < TraceLevel::Spans);
        assert!(TraceLevel::Spans < TraceLevel::All);
        assert!(!TraceClass::Decision.captured_at(TraceLevel::Off));
        assert!(TraceClass::Decision.captured_at(TraceLevel::Decisions));
        assert!(!TraceClass::Span.captured_at(TraceLevel::Decisions));
        assert!(TraceClass::Span.captured_at(TraceLevel::Spans));
        assert!(!TraceClass::Dispatch.captured_at(TraceLevel::Spans));
        assert!(TraceClass::Dispatch.captured_at(TraceLevel::All));
    }

    #[test]
    fn level_names_round_trip() {
        for level in [
            TraceLevel::Off,
            TraceLevel::Decisions,
            TraceLevel::Spans,
            TraceLevel::All,
        ] {
            assert_eq!(TraceLevel::parse(level.name()), Some(level));
        }
        assert_eq!(TraceLevel::parse("ALL"), Some(TraceLevel::All));
        assert_eq!(TraceLevel::parse("bogus"), None);
    }

    #[test]
    fn classes_match_taxonomy() {
        for rec in crate::testing::samples().records {
            let (tag, class) = (rec.event.type_tag(), rec.event.class());
            // The audit trail is the cheapest level, timing the next,
            // per-event dispatch the firehose.
            let pinned = match tag {
                "decision" | "switch" | "admission" => TraceClass::Decision,
                "plan" | "span" => TraceClass::Span,
                "sim_event" | "backfill" => TraceClass::Dispatch,
                _ => continue,
            };
            assert_eq!(class, pinned, "{tag}");
        }
    }
}
