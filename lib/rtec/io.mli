(** Textual serialisation of streams and background knowledge, in concrete
    RTEC syntax, so that datasets round-trip through files and the command
    line. An event is written as [happensAt(E, T).]; an input statically
    determined fluent as [holdsFor(F = V, [[S1, E1], [S2, E2], ...]).]
    (spans as two-element lists; the sentinel atom [inf] denotes an open
    interval); a fact as itself. *)

val stream_to_string : Stream.t -> string
val stream_of_string : string -> Stream.t
(** Raises {!Parser.Error} on malformed input and [Invalid_argument] on
    lines that are neither [happensAt] nor [holdsFor] facts. *)

val items_of_string : string -> Stream.item list
(** Parses a chunk of the stream format into ingestion items, input
    order preserved — the [serve] line protocol ([Runtime.Service]
    consumes the items). Raises like {!stream_of_string}. Goes through a
    fresh {!Codec.t}; long-lived readers should hold their own codec so
    the atom memo persists across chunks. *)

(** Fast-path line decoding. [Codec] recognises the two protocol fact
    shapes — [happensAt(F(args...), T).] and
    [holdsFor(F(args...) = V, [[S, E], ...]).] — by scanning bytes
    directly into ground terms, memoising atoms so recurring vocabulary
    is shared rather than re-allocated. It accepts a strict subset of
    the full grammar; any input outside it (quoted atoms, variables,
    arithmetic, rules, block comments) falls back to the general
    lexer/parser pipeline for the whole chunk, so results and errors are
    always exactly the parser's. Instrumented: [io.codec.fast] counts
    fast-decoded facts, [io.codec.fallback] counts chunks that took the
    general path. A codec value is not thread-safe; give each reader its
    own. *)
module Codec : sig
  type t

  val create : unit -> t
  val items_of_string : t -> string -> Stream.item list
end

(** Chunked line framing — the one line splitter of the serve protocol,
    on stdin and on every TCP connection. A framer reads its input in
    chunks of up to 64 KiB, yields the lines each chunk completes, and
    carries an unterminated tail over to the next chunk.
    Lines come out exactly as [String.trim (input_line ic)] would return
    them, in order: CRLF endings, blank and [%] lines included (callers
    skip those), a last line without a trailing newline delivered at end
    of input, and lines longer than a chunk reassembled across reads. *)
module Framer : sig
  type t

  val create : unit -> t

  val read : t -> in_channel -> (string -> unit) -> bool
  (** [read t ic f] performs one [input] from [ic] (blocking until at
      least one byte or end of input) and calls [f] on every line that
      read completes. At end of input it calls [f] on the carried
      unterminated line, if any, and returns [false]; otherwise [true].
      Channel exceptions ([Sys_error]) propagate. *)

  val feed : t -> Bytes.t -> int -> int -> (string -> unit) -> unit
  (** [feed t b off len f] frames the bytes [b.[off .. off+len-1]] as the
      next read — {!read} without the channel. *)

  val finish : t -> (string -> unit) -> unit
  (** End of input: [f] on the carried unterminated line, if any. *)
end

val knowledge_to_string : Knowledge.t -> string
val knowledge_of_string : string -> Knowledge.t

val write_stream : out_channel -> Stream.t -> unit
val read_stream : in_channel -> Stream.t
val write_knowledge : out_channel -> Knowledge.t -> unit
val read_knowledge : in_channel -> Knowledge.t
