(** Deterministic fault injection for the flow simulator.

    The paper's conclusion calls for refining the network model toward
    observed wide-area behaviour, where backbone links churn and
    clusters slow down or vanish.  This module describes that dynamism
    as a {e plan}: a time-sorted sequence of platform events — backbone
    link failure/recovery, per-connection bandwidth degradation,
    [max_connect] reduction, cluster speed throttling and crash — that
    {!Simulator.run} applies mid-execution and {!Dls_core.Repair}
    recovers from.

    Determinism contract: {!random} draws every entity's event stream
    from its own {!Dls_util.Prng.derive}d generator, so a fault trace is
    a pure function of [(seed, platform shape, horizon, rates)] —
    independent of evaluation order, domain count or shard partitioning,
    matching the campaign runner's reproducibility guarantees.  The test
    suite checks byte-identical traces across 1-vs-8 domains. *)

type kind =
  | Link_down of int  (** backbone link fails: no connection passes *)
  | Link_up of int  (** failed link recovers (degradation also clears) *)
  | Link_degrade of { link : int; factor : float }
      (** per-connection bandwidth multiplied by [factor] (in [(0, 1]];
          [1.0] restores the nominal bandwidth) *)
  | Max_connect of { link : int; limit : int }
      (** simultaneous-connection cap lowered (or restored) to [limit] *)
  | Cluster_throttle of { cluster : int; factor : float }
      (** compute speed multiplied by [factor] (in [(0, 1]]; [1.0]
          restores the nominal speed) *)
  | Cluster_crash of int
      (** cluster vanishes: speed and local link capacity drop to 0
          for the rest of the run (no recovery event) *)

type event = { time : float; kind : kind }

type policy = Stall | Kill
(** What {!Simulator.run} does with an in-flight transfer that a fault
    renders unmovable (down link on its route, crashed endpoint):
    [Stall] keeps it queued — it resumes if a recovery event restores
    capacity, otherwise it counts as stalled; [Kill] drops it
    immediately (the chunk never arrives) and counts it as killed. *)

type plan
(** An immutable, time-sorted event sequence for one platform. *)

val empty : plan

val make : Dls_platform.Platform.t -> event list -> plan
(** Sort (stable, by time) and validate a hand-written event list.
    @raise Invalid_argument on a negative time, an out-of-range link or
    cluster id, a degradation/throttle factor outside [(0, 1]], or a
    negative [Max_connect] limit. *)

val events : plan -> event list
(** Events in application order. *)

val is_empty : plan -> bool

val random :
  seed:int ->
  horizon:float ->
  ?link_rate:float ->
  ?cluster_rate:float ->
  Dls_platform.Platform.t ->
  plan
(** Seed-derived random plan over [[0, horizon)].  Each backbone link
    and each cluster gets its own Poisson event process
    ([link_rate] / [cluster_rate] expected events per entity per time
    unit, defaults 0 — i.e. an empty plan): links alternate between
    outright failure/recovery, bandwidth degradation/restoration and
    [max_connect] reduction/restoration episodes; clusters mostly
    throttle and recover, occasionally crash for good.  Entity [i]'s
    draws come from [Prng.derive ~seed ~index:i]-style streams, so the
    plan is reproducible in O(1) per entity regardless of who else was
    generated first.
    @raise Invalid_argument on a rate or horizon outside [[0, inf)]
    (NaN included): an infinite rate would draw zero-length gaps
    forever. *)

val pp_kind : Format.formatter -> kind -> unit
val pp_event : Format.formatter -> event -> unit

val kind_to_json : kind -> Dls_util.Json.t
(** One-object encoding ([{"fault":"link_down","link":3}], ...) — the
    wire format of the scheduler daemon's [platform_delta] request. *)

val kind_of_json : Dls_util.Json.t -> (kind, string) result
(** Inverse of {!kind_to_json}.  Structural decoding only: range checks
    against a platform happen in {!make}. *)

val trace : plan -> string
(** One line per event ([t=<time> <kind>]), byte-stable across runs —
    the determinism tests compare these strings. *)

(** {2 Cursor}

    Mutable application state over a plan, advanced by the simulator at
    event times. *)

type state

val start : Dls_platform.Platform.t -> plan -> state
(** Fresh cursor at time 0, all entities healthy. *)

val next_time : state -> float option
(** Time of the next unapplied event; [None] when exhausted. *)

val advance : state -> now:float -> event list
(** Apply every unapplied event with [time <= now] (closed at [now]: an
    event landing exactly on the boundary is applied); returns them in
    application order.  Each event is applied exactly once — a second
    [advance] to the same [now] returns []. *)

val apply_kind : state -> kind -> unit
(** Apply one event kind to the cursor immediately, outside any plan —
    the allocation daemon uses this to maintain a materialized view of
    its delta log instead of refolding the log per request.  Applying
    the same kinds in the same order as {!advance} would leaves the
    cursor in the identical state. *)

val link_factor : state -> int -> float
(** Current per-connection bandwidth multiplier of a backbone link: 0
    when down, the degradation factor otherwise. *)

val link_degradation : state -> int -> float
(** The raw degradation factor of a backbone link, ignoring whether the
    link is down (unlike {!link_factor}). *)

val link_max_connect : state -> int -> int
(** Current connection cap of a backbone link (0 when down). *)

val speed_factor : state -> int -> float
(** Current compute-speed multiplier of a cluster (0 when crashed). *)

val crashed : state -> int -> bool

val any_fault_active : state -> bool
(** Whether any entity currently deviates from its nominal state. *)

val degraded_platform : state -> Dls_platform.Platform.t
(** The residual platform under the cursor's current state, with the
    original routing table preserved: throttled/crashed clusters keep a
    scaled (or zero) speed, crashed clusters lose their local link,
    degraded backbones grant scaled per-connection bandwidth, and a
    {e down} backbone keeps its nominal bandwidth but drops to
    [max_connect = 0] — no connection can cross it, which is how the
    feasibility checker (Eqs. 7d/7e) and {!Dls_core.Residual} see an
    unusable link.  Feed the result to {!Dls_core.Repair}. *)

val degraded_at : Dls_platform.Platform.t -> plan -> time:float -> Dls_platform.Platform.t
(** Convenience: the degraded platform after applying every event with
    [time <= time] to a fresh cursor. *)

val downtime : Dls_platform.Platform.t -> plan -> horizon:float -> float
(** Total time over the half-open window [[0, horizon)] during which at
    least one fault was active ({!any_fault_active}).  The half-open
    convention means an event landing exactly on the horizon is outside
    the window and contributes nothing: a fault starting at [horizon]
    adds no downtime, and a recovery at [horizon] does not clip the
    preceding fault episode, which is charged up to the horizon.
    Abutting episodes (one ends exactly where the next begins) count
    the shared boundary instant once — intervals never double-count. *)
