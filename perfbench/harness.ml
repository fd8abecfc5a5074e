(* The in-process half of the benchmark; perfbench/run.py drives it.

   Commands (each prints one JSON object on stdout):
     figures-reference --seed N --ref DIR --out FILE
     figures           --seed N --rounds R --reference FILE [--traced]
     prepare-live      --seed N --dir D
     trace-live        --dir D
     prepare-flood     --seed N --dir D --events E
     trace-flood       --dir D

   The figures workload runs entirely here. For the serve workloads this
   program only generates the inputs (a seeded line schedule), computes
   the references the served output is checked against, and replays the
   identical line sequence in-process for the traced layer ladder; the
   timed runs go through a real [rtec_cli serve] driven by run.py. *)

(* --- arguments --- *)

let args = List.tl (Array.to_list Sys.argv)

let opt name =
  let rec go = function
    | k :: v :: _ when k = "--" ^ name -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go args

let str_opt name =
  match opt name with
  | Some v -> v
  | None -> failwith (Printf.sprintf "--%s is required" name)

let int_opt name =
  let v = str_opt name in
  match int_of_string_opt v with
  | Some n -> n
  | None -> failwith (Printf.sprintf "--%s expects an integer, got %S" name v)

let flag name = List.mem ("--" ^ name) args

(* --- clocks, spans, output --- *)

let now_ns = Telemetry.Clock.now_ns
let secs_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

(* Layer timers: a span accumulates the seconds spent inside calls into
   one layer. Off, a span is the bare call, which is what the overhead
   comparison measures against. *)
let spans_on = ref false
let spans : (string, float) Hashtbl.t = Hashtbl.create 16

let span name f =
  if not !spans_on then f ()
  else begin
    let t0 = now_ns () in
    let r = f () in
    let dt = secs_since t0 in
    Hashtbl.replace spans name (dt +. Option.value ~default:0. (Hashtbl.find_opt spans name));
    r
  end

let span_total name = Option.value ~default:0. (Hashtbl.find_opt spans name)
let counter name = Telemetry.Metrics.value (Telemetry.Metrics.counter name)

let reset_layers () =
  Hashtbl.reset spans;
  Telemetry.Metrics.reset ()

module J = Telemetry.Json

let num x = J.Num x
let nums xs = J.List (List.map num xs)
let print_json fields = print_endline (J.to_string (J.Obj fields))

(* Peak resident set of this process, in MiB (VmHWM is in KiB). *)
let heap_peak_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let read_file file = In_channel.with_open_bin file In_channel.input_all
let write_file file s = Out_channel.with_open_bin file (fun oc -> output_string oc s)

let to_text f =
  let b = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer b in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents b

(* --- figures --- *)

module E = Evaluation.Experiments
module R = Evaluation.Report

let dataset_config seed = { Maritime.Dataset.default_config with seed }

(* Everything [figures all] prints around Figure 2c: the text before it
   (2a, scheme table, 2b) and the ablation tables after it. *)
type fig2ab = { corrected : E.corrected list; before_2c : string; ablations : string }

let fig2ab_text ~generations ~best ~corrected =
  to_text (fun ppf ->
      R.figure_2a ppf best;
      Format.fprintf ppf "@.";
      R.scheme_table ppf generations;
      Format.fprintf ppf "@.";
      R.figure_2b ppf corrected;
      Format.fprintf ppf "@.")

(* The untraced path: the public Experiments/Report calls as [figures all]
   makes them. *)
let fig2ab () =
  let generations = E.generate_all () in
  let best = E.best_per_model generations in
  let corrected = E.correct_top best in
  {
    corrected;
    before_2c = fig2ab_text ~generations ~best ~corrected;
    ablations = to_text (fun ppf -> R.ablations ppf best);
  }

(* Figure 2c's text, and the input events it recognised: the dataset
   once for the gold ED and once per corrected ED. *)
let fig2c ~seed corrected =
  let dataset = Maritime.Dataset.generate ~config:(dataset_config seed) () in
  let events = Rtec.Stream.size dataset.stream * (1 + List.length corrected) in
  match E.predictive_accuracy ~dataset corrected with
  | Error e -> ("figure 2c failed: " ^ e ^ "\n", events)
  | Ok rows -> (to_text (fun ppf -> R.figure_2c ppf rows), events)

(* The traced path: the same round, decomposed into one call per layer
   with a span around each. Its text is checked against the same
   reference, so the decomposition cannot drift from what users run. *)
let average values =
  if values = [] then 0.
  else List.fold_left (fun acc (_, v) -> acc +. v) 0. values /. float_of_int (List.length values)

let traced_session backend = span "session" (fun () -> Adg.Session.run backend)
let traced_table session = span "similarity" (fun () -> E.similarity_table session)

let fig2ab_traced () =
  let generations =
    List.concat_map
      (fun model ->
        List.map
          (fun scheme ->
            let session = traced_session (Adg.Profiles.backend (Adg.Profiles.find ~model ~scheme)) in
            let per_activity = traced_table session in
            {
              E.session;
              label = model ^ Adg.Prompt.scheme_symbol scheme;
              per_activity;
              average = average per_activity;
            })
          [ Adg.Prompt.Few_shot; Adg.Prompt.Chain_of_thought ])
      Adg.Profiles.models
  in
  let best = E.best_per_model generations in
  let corrected = span "correction" (fun () -> E.correct_top best) in
  let before_2c = span "report" (fun () -> fig2ab_text ~generations ~best ~corrected) in
  let zero_shot =
    List.map
      (fun model ->
        let profile =
          Adg.Profiles.find ~model ~scheme:(Adg.Profiles.reported_scheme model)
        in
        let session = traced_session (Adg.Profiles.zero_shot_backend profile) in
        (model, average (traced_table session)))
      Adg.Profiles.models
  in
  let greedy = span "similarity" (fun () -> E.assignment_ablation best) in
  let ablations =
    span "report" (fun () ->
        to_text (fun ppf ->
            Format.fprintf ppf
              "Ablation: zero-shot prompting (average similarity; excluded from the \
               paper's pipeline for producing poor results)@.";
            List.iter (fun (model, avg) -> Format.fprintf ppf "  %-10s %.3f@." model avg) zero_shot;
            Format.fprintf ppf "@.";
            Format.fprintf ppf
              "Ablation: Kuhn-Munkres vs. greedy mapping in the similarity metric \
               (average similarity)@.";
            Format.fprintf ppf "  %-12s %12s %12s@." "" "hungarian" "greedy";
            List.iter
              (fun (label, hungarian, greedy) ->
                Format.fprintf ppf "  %-12s %12.3f %12.3f@." label hungarian greedy)
              greedy))
  in
  { corrected; before_2c; ablations }

let fig2c_rows ~recognise corrected =
  match recognise Maritime.Gold.event_description with
  | Error e -> Error e
  | Ok reference ->
    let row (c : E.corrected) =
      Result.map
        (fun predicted ->
          {
            E.label = c.corrected_label;
            per_activity_f1 =
              List.map
                (fun (a : Evaluation.Detection.activity) ->
                  ( a.code,
                    Evaluation.Metrics.f1
                      (Evaluation.Metrics.compare_activity ~predicted ~reference
                         ~indicator:a.indicator) ))
                Evaluation.Detection.reported;
          })
        (recognise c.ed)
    in
    List.fold_right
      (fun c acc ->
        match (acc, row c) with
        | Ok rows, Ok r -> Ok (r :: rows)
        | (Error _ as e), _ | _, (Error _ as e) -> e)
      corrected (Ok [])

let fig2c_traced ~seed corrected =
  let dataset =
    span "dataset" (fun () -> Maritime.Dataset.generate ~config:(dataset_config seed) ())
  in
  let recognise ed =
    span "detect" (fun () -> Evaluation.Detection.detect ~event_description:ed ~dataset ())
  in
  match fig2c_rows ~recognise corrected with
  | Error e -> ("figure 2c failed: " ^ e ^ "\n", 0)
  | Ok rows ->
    ( span "report" (fun () -> to_text (fun ppf -> R.figure_2c ppf rows)),
      Rtec.Stream.size dataset.stream )

(* The independent fig2c reference: the tree-walking interpreter (the
   repo's differential oracle) instead of the compiled kernels, over
   Detection's window and step. *)
let fig2c_oracle ~seed corrected =
  let dataset = Maritime.Dataset.generate ~config:(dataset_config seed) () in
  let recognise ed =
    Result.map fst
      (Runtime.run
         ~config:(Runtime.config ~window:3600 ~step:1800 ~compile:false ())
         ~event_description:ed ~knowledge:dataset.knowledge ~stream:dataset.stream ())
  in
  match fig2c_rows ~recognise corrected with
  | Error e -> failwith ("fig2c oracle: " ^ e)
  | Ok rows -> to_text (fun ppf -> R.figure_2c ppf rows)

(* [figures all]'s layout: 2a, scheme table, 2b, 2c, ablations. *)
let figures_text ab c = ab.before_2c ^ c ^ "\n" ^ ab.ablations

(* The expected text of one round. Figures 2a/2b and the ablations do not
   depend on the seed and must match [figures all] as recorded in
   [ref/figures-20250325.txt] (the dataset's default seed); Figure 2c comes
   from the interpreter oracle, which for the default seed must reproduce
   the recording too. A mismatch fails the set-up. *)
let figures_reference ~ref_dir ~seed =
  let default_seed = Maritime.Dataset.default_config.seed in
  let recorded = read_file (Filename.concat ref_dir (Printf.sprintf "figures-%d.txt" default_seed)) in
  let ab = fig2ab () in
  if
    not
      (String.starts_with ~prefix:ab.before_2c recorded
      && String.ends_with ~suffix:("\n" ^ ab.ablations) recorded)
  then failwith "figures 2a/2b/ablations differ from the recorded reference";
  let text = figures_text ab (fig2c_oracle ~seed ab.corrected) in
  if seed = default_seed && not (String.equal text recorded) then
    failwith "the fig2c oracle differs from the recorded reference";
  text

(* The figures set-up, one fresh process each time (run.py times it):
   the expected text of a round, for the timed process to check against. *)
let figures_reference_cmd () =
  let seed = int_opt "seed" in
  write_file (str_opt "out") (figures_reference ~ref_dir:(str_opt "ref") ~seed);
  print_json []

let figures_cmd () =
  let seed = int_opt "seed" in
  let rounds = int_opt "rounds" in
  let reference = read_file (str_opt "reference") in
  let traced = flag "traced" in
  let failed = ref 0 in
  let check text = if not (String.equal text reference) then incr failed in
  if not traced then begin
    let events = ref 0 in
    let t_timed = now_ns () in
    for _ = 1 to rounds do
      (* A fresh process starts with an empty rule-pair memo. *)
      Similarity.Distance.clear_cache ();
      let ab = fig2ab () in
      let c, n = fig2c ~seed ab.corrected in
      events := !events + n;
      check (figures_text ab c)
    done;
    print_json
      [
        ("wall_s", num (secs_since t_timed));
        ("events", num (float_of_int !events));
        ("heap_peak_mb", num (heap_peak_mb ()));
        ("attempted", num (float_of_int rounds));
        ("failed", num (float_of_int !failed));
      ]
  end
  else begin
    (* Alternate untimed and traced laps of the decomposed round, so the
       overhead ratio compares neighbours under the same drift. *)
    let lap_s traced_lap =
      Similarity.Distance.clear_cache ();
      spans_on := traced_lap;
      if traced_lap then Telemetry.Metrics.enable () else Telemetry.Metrics.disable ();
      let t0 = now_ns () in
      let ab = fig2ab_traced () in
      let c, events = fig2c_traced ~seed ab.corrected in
      let wall = secs_since t0 in
      spans_on := false;
      Telemetry.Metrics.disable ();
      check (figures_text ab c);
      (wall, events)
    in
    reset_layers ();
    let plain = ref [] and traced_walls = ref [] and events = ref 0 in
    for _ = 1 to rounds do
      plain := fst (lap_s false) :: !plain;
      let w, e = lap_s true in
      traced_walls := w :: !traced_walls;
      events := !events + e
    done;
    let per_round name = span_total name *. 1e3 /. float_of_int rounds in
    let layers = [ "session"; "similarity"; "correction"; "report"; "dataset"; "detect" ] in
    let traced_total = List.fold_left ( +. ) 0. !traced_walls in
    let hit_ratio hit miss =
      let h = float_of_int (counter hit) and m = float_of_int (counter miss) in
      if h +. m = 0. then nan else h /. (h +. m)
    in
    let per_round_count name = float_of_int (counter name) /. float_of_int rounds in
    print_json
      [
        ("traced_wall_s", nums (List.rev !traced_walls));
        ("plain_wall_s", nums (List.rev !plain));
        ("trace.cover", num (List.fold_left (fun a l -> a +. span_total l) 0. layers /. traced_total));
        ("session.run_ms", num (per_round "session"));
        ("backend.calls", num (per_round_count "backend.calls"));
        ("similarity.table_ms", num (per_round "similarity"));
        ( "similarity.rule_cache_hit_ratio",
          num (hit_ratio "similarity.rule_cache.hit" "similarity.rule_cache.miss") );
        ("assignment.km_calls", num (per_round_count "kuhn_munkres.calls"));
        ( "assignment.km_iterations_per_call",
          num
            (float_of_int (counter "kuhn_munkres.iterations")
            /. float_of_int (max 1 (counter "kuhn_munkres.calls"))) );
        ("correction.correct_top_ms", num (per_round "correction"));
        ("report.ms", num (per_round "report"));
        ("dataset.generate_ms", num (per_round "dataset"));
        ("recognition.detect_ms", num (per_round "detect"));
        ("recognition.events_per_s", num (float_of_int !events /. span_total "detect"));
        ("engine.compiled_hit_ratio", num (hit_ratio "engine.compiled.hit" "engine.compiled.miss"));
        ("attempted", num (float_of_int (2 * rounds)));
        ("failed", num (float_of_int !failed));
      ]
  end

(* --- serve workloads: shared replay --- *)

let load_ed file =
  match Rtec.Parser.parse_clauses_result (read_file file) with
  | Error e -> failwith (Printf.sprintf "%s: %s" file e)
  | Ok rules -> [ { Rtec.Ast.name = Filename.basename file; rules } ]

let pp_intervals ppf result =
  List.iter
    (fun ((f, v), spans) ->
      Format.fprintf ppf "holdsFor(%a = %a, %a).@." Rtec.Term.pp f Rtec.Term.pp v
        Rtec.Interval.pp spans)
    result

let read_lines file =
  Array.of_list (List.filter (fun l -> l <> "") (String.split_on_char '\n' (read_file file)))

let tick_of_line line =
  if String.starts_with ~prefix:"tick(" line then Scanf.sscanf_opt line "tick(%d)." Fun.id
  else None

type replay = {
  emissions : string list;  (** one per tick, then the final emission *)
  tick_busy_s : float list;  (** tick + emit, per tick *)
  wall_s : float;
  stats : Runtime.Service.stats;
  emit_bytes : int;  (** bytes emitted by ticks *)
  final_intervals : Rtec.Engine.result;
}

(* Feed [lines] to a fresh service exactly as [rtec_cli serve] does: one
   decode and one ingest per line, a tick per [tick(T).] line, then a
   drain at end of input, formatting each emission as serve prints it
   ([emit_ticks]: a full snapshot after every tick). *)
let replay ~config ~ed ~knowledge ~emit_ticks lines =
  let svc = Runtime.Service.create ~config ~event_description:ed ~knowledge () in
  let codec = Rtec.Io.Codec.create () in
  let emissions = ref [] and busy = ref [] and emit_bytes = ref 0 in
  let t0 = now_ns () in
  Array.iter
    (fun line ->
      match tick_of_line line with
      | Some now ->
        let t_tick = now_ns () in
        let r =
          match span "tick" (fun () -> Runtime.Service.tick svc ~now) with
          | Ok r -> r
          | Error e -> failwith ("tick: " ^ e)
        in
        if emit_ticks then begin
          let text =
            span "emit" (fun () ->
                to_text (fun ppf ->
                    Format.fprintf ppf
                      "%% tick %d: %d queries, %d entity shard(s), watermark %s@." now
                      r.stats.queries r.stats.buckets
                      (match r.watermark with None -> "-" | Some w -> string_of_int w);
                    pp_intervals ppf (Lazy.force r.intervals)))
          in
          emit_bytes := !emit_bytes + String.length text;
          emissions := text :: !emissions
        end;
        busy := secs_since t_tick :: !busy
      | None ->
        let items = span "decode" (fun () -> Rtec.Io.Codec.items_of_string codec line) in
        span "ingest" (fun () -> Runtime.Service.ingest svc items))
    lines;
  let r =
    match span "drain" (fun () -> Runtime.Service.drain svc) with
    | Ok r -> r
    | Error e -> failwith ("drain: " ^ e)
  in
  let final =
    span "final_emit" (fun () ->
        let s = r.stats in
        to_text (fun ppf ->
            Format.fprintf ppf "%% %d queries, %d window-events, %d shard(s) on %d domain(s)@."
              s.queries s.events_processed s.buckets s.jobs;
            Format.fprintf ppf
              "%% %d appends, %d late events (%d dropped), %d revisions, %d active / %d \
               evicted entities@."
              s.appends s.late_events s.dropped_late s.revisions s.entities_active
              s.entities_evicted;
            pp_intervals ppf (Lazy.force r.intervals)))
  in
  {
    emissions = List.rev (final :: !emissions);
    tick_busy_s = List.rev !busy;
    wall_s = secs_since t0;
    stats = r.stats;
    emit_bytes = !emit_bytes;
    final_intervals = Lazy.force r.intervals;
  }

(* Batch recognition over the accepted items, formatted as [recognise]
   prints them (comment lines aside). *)
let batch_reference ~config ~ed ~knowledge items =
  match Runtime.run ~config ~event_description:ed ~knowledge ~stream:(Rtec.Stream.of_items items) () with
  | Error e -> failwith ("batch reference: " ^ e)
  | Ok (result, _) -> to_text (fun ppf -> pp_intervals ppf result)

(* Query grid of a stream whose first event is at [lo] and last at [hi]:
   the service's first query falls a full window after the first event,
   then one every step; ticks stop before the drain's final query. *)
let grid ~lo ~hi ~window ~step =
  let rec go q acc = if q > hi - 1 then List.rev acc else go (q + step) (q :: acc) in
  go (lo + window - 1) []

(* A tick line sorts after every event of its time-point. *)
let tick_entry ~lo q = (float_of_int (q - lo) +. 0.5, Printf.sprintf "tick(%d)." q)

(* The layer ladder of one traced replay, printed by trace-live/-flood:
   [laps] untimed and [laps] traced replays, alternately. *)
let laps = 2

let trace_replays run =
  let plain = ref [] and traced = ref [] in
  let last = ref None in
  reset_layers ();
  for _ = 1 to laps do
    plain := (run ()).wall_s :: !plain;
    spans_on := true;
    Telemetry.Metrics.enable ();
    let r = run () in
    spans_on := false;
    Telemetry.Metrics.disable ();
    traced := r.wall_s :: !traced;
    last := Some r
  done;
  (Option.get !last, List.rev !plain, List.rev !traced)

let replay_layers = [ "decode"; "ingest"; "tick"; "emit"; "drain"; "final_emit" ]

let ladder_fields ~lines (r : replay) plain traced =
  let per_lap name = span_total name /. float_of_int laps in
  let events =
    Array.fold_left (fun n l -> if tick_of_line l = None then n + 1 else n) 0 lines
  in
  let ticks = List.length r.tick_busy_s in
  let fast = float_of_int (counter "io.codec.fast") in
  let fallback = float_of_int (counter "io.codec.fallback") in
  [
    ("plain_wall_s", nums plain);
    ("traced_wall_s", nums traced);
    ( "trace.cover",
      num
        (List.fold_left (fun a l -> a +. span_total l) 0. replay_layers
        /. List.fold_left ( +. ) 0. traced) );
    ("io.decode_ns_per_line", num (per_lap "decode" *. 1e9 /. float_of_int events));
    ("io.codec_fast_ratio", num (fast /. (fast +. fallback)));
    ("service.ingest_ns_per_event", num (per_lap "ingest" *. 1e9 /. float_of_int events));
    ("service.appends", num (float_of_int r.stats.appends));
    ("tick_busy_ms", nums (List.map (fun s -> s *. 1e3) r.tick_busy_s));
    ("service.tick_busy_s", num (per_lap "tick" +. per_lap "emit"));
    ("service.queries", num (float_of_int r.stats.queries));
    ("service.revisions", num (float_of_int (counter "service.revisions") /. float_of_int laps));
    ("service.late_events", num (float_of_int (counter "stream.late_events") /. float_of_int laps));
    ("service.dropped_late", num (float_of_int (counter "stream.dropped_late") /. float_of_int laps));
    ("service.buckets", num (float_of_int r.stats.buckets));
    ("service.drain_ms", num (per_lap "drain" *. 1e3));
    ("emit.ms_per_tick", num (per_lap "emit" *. 1e3 /. float_of_int (max 1 ticks)));
    ("emit.bytes_per_tick", num (float_of_int r.emit_bytes /. float_of_int (max 1 ticks)));
    ("emit.final_ms", num (per_lap "final_emit" *. 1e3));
  ]

(* --- maritime-live --- *)

(* Sizing: the dataset's replicas, the server's window, step and horizon,
   and the share of events delivered late, per mille. *)
let live_replicas = 2
let live_window = 3600
let live_step = 300
let live_horizon = 600
let live_late_permille = 50
let live_config = Runtime.Service.config ~window:live_window ~step:live_step ~horizon:live_horizon ()

let live_files dir =
  let f = Filename.concat dir in
  (f "live.ed", f "live.kb", f "live.sched", f "live.ref", f "live.idx", f "live.final", f "live.cfg")

let prepare_live () =
  let seed = int_opt "seed" and dir = str_opt "dir" in
  let ed_file, kb_file, sched_file, ref_file, idx_file, final_file, cfg_file = live_files dir in
  let data =
    Maritime.Dataset.generate
      ~config:{ seed; replicas = live_replicas; nominal = live_replicas + 1 }
      ()
  in
  write_file ed_file
    (Rtec.Printer.event_description_to_string Maritime.Gold.event_description ^ "\n");
  write_file kb_file (Rtec.Io.knowledge_to_string data.knowledge);
  let codec = Rtec.Io.Codec.create () in
  let lines =
    String.split_on_char '\n' (Rtec.Io.stream_to_string data.stream)
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l -> (l, Rtec.Io.Codec.items_of_string codec l))
  in
  let lo, hi = Rtec.Stream.extent data.stream in
  let ticks = grid ~lo ~hi ~window:live_window ~step:live_step in
  let first_query = lo + live_window - 1 in
  (* The delivery order: input fluents first, then events by their own
     time, except a seeded share delivered between one step and the
     horizon late, which always crosses at least one tick and is always
     within the horizon. Each tick follows the events of its time-point. *)
  let rng = Random.State.make [| seed; 0x1a7e |] in
  let entries =
    List.map
      (fun (line, items) ->
        match items with
        | [ Rtec.Stream.Event e ] ->
          let delay =
            if e.time > first_query && Random.State.int rng 1000 < live_late_permille then
              live_step + Random.State.int rng (live_horizon - live_step)
            else 0
          in
          (float_of_int (e.time - lo + delay), line)
        | _ -> (0., line))
      lines
  in
  let schedule =
    List.stable_sort
      (fun (a, _) (b, _) -> Float.compare a b)
      (entries @ List.map (tick_entry ~lo) ticks)
    |> List.map snd
  in
  write_file sched_file (String.concat "" (List.map (fun line -> line ^ "\n") schedule));
  let ed = load_ed ed_file and knowledge = Rtec.Knowledge.of_source (read_file kb_file) in
  (* Room for every ingest and tick record of the replay. *)
  Telemetry.Flight.set_capacity (1 lsl 16);
  let r =
    replay ~config:live_config ~ed ~knowledge ~emit_ticks:true (Array.of_list schedule)
  in
  if r.stats.dropped_late <> 0 then failwith "the schedule dropped late events";
  (* Every latency sample must time exactly one grid step: the service's
     flight record of each tick pass carries its number of grid queries
     (the drain's pass comes last). *)
  let passes =
    List.filter_map
      (fun (e : Telemetry.Flight.event) -> if e.kind = Tick then Some e.b else None)
      (Telemetry.Flight.events ())
  in
  if
    List.length passes <> List.length ticks + 1
    || List.exists (fun q -> q <> 1) (List.filteri (fun i _ -> i < List.length ticks) passes)
  then failwith "a tick did not evaluate exactly one grid step";
  write_file ref_file (String.concat "" r.emissions);
  let _, idx =
    List.fold_left
      (fun (off, acc) e ->
        let off = off + String.length e in
        (off, string_of_int off :: acc))
      (0, []) r.emissions
  in
  write_file idx_file (String.concat "\n" (List.rev idx) ^ "\n");
  let items = List.concat_map snd lines in
  write_file final_file
    (batch_reference
       ~config:(Runtime.config ~window:live_window ~step:live_step ())
       ~ed ~knowledge items);
  let serve_args =
    [ "-k"; kb_file; "-w"; string_of_int live_window; "-s"; string_of_int live_step;
      "--horizon"; string_of_int live_horizon; "--emit"; "ticks" ]
  in
  write_file cfg_file (String.concat "\n" serve_args ^ "\n");
  print_json
    [
      ("events", num (float_of_int (Rtec.Stream.size data.stream)));
      ("ticks", num (float_of_int (List.length ticks)));
      ("late_events", num (float_of_int r.stats.late_events));
      ("revisions", num (float_of_int r.stats.revisions));
      ("step", num (float_of_int live_step));
    ]

(* The traced replay of a prepared workload, under the same service
   configuration as the flags prepare-* writes for its server. *)
let trace_cmd ~ed_file ~knowledge ~config ~emit_ticks ~ref_file lines =
  let ed = load_ed ed_file in
  let r, plain, traced = trace_replays (fun () -> replay ~config ~ed ~knowledge ~emit_ticks lines) in
  let reference = read_file ref_file in
  let failed =
    if emit_ticks then
      if String.equal (String.concat "" r.emissions) reference then 0 else 1
    else if String.equal (to_text (fun ppf -> pp_intervals ppf r.final_intervals)) reference
    then 0
    else 1
  in
  print_json
    (ladder_fields ~lines r plain traced
    @ [ ("attempted", num 1.); ("failed", num (float_of_int failed)) ])

let trace_live () =
  let ed_file, kb_file, sched_file, ref_file, _, _, _ = live_files (str_opt "dir") in
  trace_cmd ~ed_file
    ~knowledge:(Rtec.Knowledge.of_source (read_file kb_file))
    ~config:live_config ~emit_ticks:true ~ref_file (read_lines sched_file)

(* --- ais-flood --- *)

(* Sizing: vessels, seconds between a vessel's events, the server's
   window (also the tick period), and the shards of the batch reference. *)
let flood_vessels = 2000
let flood_spacing = 60
let flood_window = 3600
let flood_shards = 128

let flood_files dir =
  let f = Filename.concat dir in
  (f "flood.ed", f "flood.stream", f "flood.ref", f "flood.cfg")

let stopped_ed =
  "initiatedAt(stopped(Vessel) = true, T) :-\n\
  \    happensAt(stop_start(Vessel), T).\n\n\
   terminatedAt(stopped(Vessel) = true, T) :-\n\
  \    happensAt(stop_end(Vessel), T).\n"

let prepare_flood () =
  let seed = int_opt "seed" and dir = str_opt "dir" and events = int_opt "events" in
  let ed_file, stream_file, ref_file, cfg_file = flood_files dir in
  write_file ed_file stopped_ed;
  (* Each vessel alternates stop_start/stop_end every [flood_spacing]
     seconds from a seeded phase offset, so vessels interleave differently
     per seed while the event count stays fixed. *)
  let rng = Random.State.make [| seed; 0xf100d |] in
  let per_vessel = events / flood_vessels in
  let phases = Array.init flood_vessels (fun _ -> Random.State.int rng flood_spacing) in
  let time i = phases.(i / per_vessel) + (i mod per_vessel * flood_spacing) in
  let order = Array.init (per_vessel * flood_vessels) Fun.id in
  Array.stable_sort (fun a b -> compare (time a) (time b)) order;
  let lo = time order.(0) and hi = time order.(Array.length order - 1) in
  let b = Buffer.create (Array.length order * 40) in
  let events_text = Buffer.create (Array.length order * 40) in
  (* Hourly ticks: one per grid query, after the events of its time-point. *)
  let ticks = grid ~lo ~hi ~window:flood_window ~step:flood_window in
  let next = ref ticks in
  Array.iter
    (fun i ->
      let rec ticks_before t =
        match !next with
        | q :: rest when q < t ->
          Printf.bprintf b "tick(%d).\n" q;
          next := rest;
          ticks_before t
        | _ -> ()
      in
      ticks_before (time i);
      let line =
        Printf.sprintf "happensAt(%s(v%d), %d).\n"
          (if i mod per_vessel mod 2 = 0 then "stop_start" else "stop_end")
          (i / per_vessel) (time i)
      in
      Buffer.add_string b line;
      Buffer.add_string events_text line)
    order;
  write_file stream_file (Buffer.contents b);
  let ed = load_ed ed_file in
  (* [recognise --shards N]: the batch path, partitioned by entity. *)
  write_file ref_file
    (batch_reference
       ~config:(Runtime.config ~window:flood_window ~shards:flood_shards ())
       ~ed ~knowledge:Rtec.Knowledge.empty
       (Rtec.Io.Codec.items_of_string (Rtec.Io.Codec.create ()) (Buffer.contents events_text)));
  write_file cfg_file
    (String.concat "\n" [ "-w"; string_of_int flood_window; "--emit"; "final" ] ^ "\n");
  print_json
    [
      ("events", num (float_of_int (Array.length order)));
      ("ticks", num (float_of_int (List.length ticks)));
    ]

let trace_flood () =
  let ed_file, stream_file, ref_file, _ = flood_files (str_opt "dir") in
  trace_cmd ~ed_file ~knowledge:Rtec.Knowledge.empty
    ~config:(Runtime.Service.config ~window:flood_window ())
    ~emit_ticks:false ~ref_file (read_lines stream_file)

let () =
  match args with
  | "figures-reference" :: _ -> figures_reference_cmd ()
  | "figures" :: _ -> figures_cmd ()
  | "prepare-live" :: _ -> prepare_live ()
  | "trace-live" :: _ -> trace_live ()
  | "prepare-flood" :: _ -> prepare_flood ()
  | "trace-flood" :: _ -> trace_flood ()
  | _ ->
    prerr_endline
      "usage: harness \
       (figures-reference|figures|prepare-live|trace-live|prepare-flood|trace-flood) \
       [--key value]...";
    exit 2
