(** Write-ahead journal machinery: append-only line logs with
    torn-tail recovery, plus atomic manifest writes.

    Factored out of the experiment {!Dls_experiments.Engine} so that
    every crash-safe component — the campaign runner, the resilience
    and dynamic experiments, the scheduler daemon — shares one
    implementation of the discipline:

    - {b Append-only log.}  One record per line (the codec is the
      caller's; {!Dls_util.Json} with its single-line guarantee is the
      usual choice), appended and flushed as work completes.
    - {b Torn-tail truncation.}  A process killed mid-append leaves at
      most one damaged line, and only at the end of the file: the final
      line either lacks its newline or fails to parse.  {!load} drops
      exactly that line and reports the valid prefix length;
      {!truncate_torn} shrinks the file back to it so subsequent
      appends continue from a clean state.  A corrupt line {e before}
      the end is real damage and is reported as an error, never
      silently skipped.
    - {b Atomic manifests.}  Derived state (checkpoints, fingerprints)
      is written via temp-file-and-rename ({!write_atomic}), so a crash
      mid-write loses the update but can never produce a torn file.
    - {b Resume identity.}  A manifest is one JSON object: the owner's
      {e identity} fields (the config or platform fingerprint the log
      was written under) followed by its {e progress} fields (counts).
      {!check_manifest} refuses to reopen a log whose manifest records
      a different identity, so a log is never extended under another
      config. *)

val load :
  of_line:(string -> ('e, string) result) ->
  path:string ->
  ('e list * int, string) result
(** Replay an existing log: entries in file order, plus the byte length
    of the valid prefix.  A final line that is unparseable or lacks its
    trailing newline is dropped (interrupted write); an invalid line
    {e before} the end is an [Error] mentioning [path] and the 1-based
    line number.  @raise Sys_error when the file cannot be read. *)

val truncate_torn : path:string -> valid_len:int -> int
(** Shrink [path] to [valid_len] bytes if it is currently longer;
    returns the number of bytes dropped (0 when the file was already
    clean).  Pair with the [valid_len] returned by {!load}. *)

val write_atomic : path:string -> string -> unit
(** Write a file via temp-and-rename, so a crash mid-write can only
    lose the update, never produce a torn file (the manifest
    discipline). *)

val manifest_path : string -> string
(** [manifest_path log] is [log ^ ".manifest"], where a log's manifest
    lives. *)

val write_manifest : path:string -> (string * Json.t) list -> unit
(** Atomically write the manifest [path] as one JSON object line with
    the given fields, in order: pass [identity @ progress]. *)

val check_manifest :
  path:string -> what:string -> (string * Json.t) list -> (unit, string) result
(** On reopen: [Ok ()] when there is no manifest at [path], or when
    every [identity] field equals the recorded one (extra recorded
    fields, such as progress counts, are ignored).  Otherwise an
    [Error] naming [path], the [what] it belongs to and the first
    identity field that differs or is missing; an unparseable manifest
    is an [Error] too.  @raise Sys_error when [path] exists but cannot
    be read. *)

val open_append : path:string -> out_channel
(** Open (creating if needed) an append-mode channel suitable for the
    log: writes land after any valid prefix left by a previous run. *)

val append_line : out_channel -> string -> unit
(** Write one record line (the string must not contain ['\n'] — the
    caller's codec guarantees it) followed by a newline, and flush, so
    an accepted record survives any later crash of the process.
    @raise Invalid_argument if the line contains a newline. *)
