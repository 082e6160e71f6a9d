(** Generic resumable, sharded evaluation runner.

    The machinery behind {!Campaign} — per-index evaluation fanned out
    over domains, append-only JSONL logging, periodic checkpoint
    manifests, torn-tail truncation and resume-by-replay — factored out
    so other sweeps (the {!Resilience} fault-rate experiment) inherit
    crash-safety without re-implementing it.  An experiment supplies a
    {!spec}: the index space, the entry codec, the evaluator, and the
    identity fields of its config.  The Engine owns the manifest: it
    writes [identity] plus [total]/[completed] next to the log
    ({!Dls_util.Wal.write_manifest}) and, on resume, refuses a log whose
    manifest records another identity ({!Dls_util.Wal.check_manifest}). *)

type 'e spec = {
  log_label : string;  (** prefix of [Logs] messages, e.g. ["campaign"] *)
  total : int;  (** size of the index space; indices are [0 .. total-1] *)
  index_of : 'e -> int;
  to_line : 'e -> string;  (** one JSONL line, no trailing newline *)
  of_line : string -> ('e, string) result;  (** total: torn lines → [Error] *)
  evaluate : int -> 'e;
      (** evaluate one index from scratch; must be a pure function of
          the index (up to wall-clock fields) for resume to be sound *)
  skip_reason : 'e -> string option;
      (** [Some reason] marks the entry as a skip (warned, counted
          separately); [None] marks a successful record *)
  entry_times : 'e -> (string * float) list;
      (** labelled wall-clock samples to accumulate into
          {!summary.s_times} (empty for skips) *)
  time_labels : string list;  (** sample labels, in reporting order *)
  log_time_stats : bool;
      (** log a mean/median/p95 digest per label after the run *)
  identity : (string * Dls_util.Json.t) list;
      (** the config fingerprint: the leading manifest fields, which a
          resume must find unchanged *)
}

type summary = {
  s_total : int;
  s_completed : int;  (** successful records, replayed + new *)
  s_skipped : int;  (** skipped entries, replayed + new *)
  s_evaluated : int;  (** entries computed by this run *)
  s_replayed : int;  (** entries recovered from the log on resume *)
  s_wall : float;  (** seconds spent in this run *)
  s_times : (string * float array) list;
      (** per-label wall-clock samples from this run's records *)
}

val run :
  ?domains:int ->
  ?chunk:int ->
  ?checkpoint_every:int ->
  ?shards:int ->
  ?shard:int ->
  ?resume:bool ->
  ?out:string ->
  ?on_entry:('e -> unit) ->
  'e spec ->
  (summary, string) result
(** Same contract as {!Campaign.run} (which is now this function under a
    campaign spec): evaluate every pending index, streaming entries to
    [out] and checkpointing every [checkpoint_every] entries; with
    [resume], replay [out] first (after checking [identity] against
    its manifest) and evaluate only the frontier; [shards]/[shard]
    partition indices round-robin; [domains]/[chunk] fan evaluation out
    over a worker pool. *)
