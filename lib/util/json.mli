(** Minimal strict JSON, used by the experiment runners' append-only
    JSONL record logs and checkpoint manifests, and by the daemon's
    protocol and journal.

    Deliberately dependency-free and line-oriented: {!to_string} always
    produces a single compact line (no embedded newlines, even inside
    strings — they are escaped), so one JSON value per log line is an
    invariant the crash-recovery code can rely on; {!of_string} is
    strict (the whole input must be exactly one value) so a torn or
    partially-flushed trailing line is reported as [Error] rather than
    silently accepted. *)

type t =
  | Null
  | Bool of bool
  | Num of float
      (** Numbers are IEEE doubles, printed with ["%.17g"] so that
          decode (string -> float) is the exact inverse of encode —
          byte-stable across runs, which the determinism tests depend
          on.  Non-finite values are not representable in JSON. *)
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering (no spaces, no newlines).
    @raise Invalid_argument on a NaN or infinite {!Num} — the campaign
    records only finite measurements; anything else is a logic error
    upstream, not something to smuggle into a log file. *)

val of_string : string -> (t, string) result
(** Strict parse of exactly one JSON value: leading/trailing ASCII
    whitespace is allowed, any other trailing garbage (including a
    second value) is an error.  Never raises on malformed input. *)

(** {2 Decoders}

    Small total helpers so decoders read as straight-line code under
    [let* = Result.bind]: [let* seed = field "seed" to_int j in ...].
    Every JSON codec in the tree decodes through these, so a missing
    member reads the same whatever the format. *)

val member : string -> t -> t option
(** Field lookup in an {!Obj} ([None] on missing field or non-object). *)

val to_num : t -> (float, string) result

val to_int : t -> (int, string) result
(** A {!Num} that is an exact integer (no fractional part). *)

val to_str : t -> (string, string) result

val to_bool : t -> (bool, string) result

val field : string -> (t -> ('a, string) result) -> t -> ('a, string) result
(** [field name conv j] decodes member [name] of object [j] with [conv].
    A missing member (or a non-object [j]) is an [Error] that names
    [name]; [conv]'s own error is returned as is. *)

val opt_field :
  string -> (t -> ('a, string) result) -> t -> ('a option, string) result
(** Like {!field}, but a missing or [null] member decodes to [None]. *)

val list : (t -> ('a, string) result) -> t -> ('a list, string) result
(** Decode every item of an {!Arr} with [conv], in order; the first
    failing item's error wins.  A non-array is an [Error]. *)
