(* The streaming service: out-of-order replay within the revision
   horizon converges bit-identically to the in-order batch run (maritime
   and fleet scenarios, jobs 1 and 4, provenance on and off);
   beyond-horizon items are counted and dropped; idle entities are
   evicted with their recognised history frozen in the result. *)

open Rtec
module Service = Runtime.Service

let exact result =
  List.map
    (fun ((f, v), spans) -> (Term.to_string f, Term.to_string v, Interval.to_list spans))
    result

let batch ~jobs ~compile ~event_description ~knowledge ~stream () =
  let config = Runtime.config ~window:3600 ~step:1800 ~jobs ~compile () in
  match Runtime.run ~config ~event_description ~knowledge ~stream () with
  | Ok (result, _) -> exact result
  | Error e -> Alcotest.failf "batch recognition failed: %s" e

(* A deterministic per-event delivery delay: events are replayed in
   delivery order [time + delay], so an event can arrive up to
   [amount] time-points after later events — strictly inside the
   service's revision horizon when [horizon > amount]. *)
let delay ~amount t i = (((t * 7919) + (i * 104729)) land max_int) mod (amount + 1)

let out_of_order_events ~amount stream =
  let keyed =
    List.mapi
      (fun i (e : Stream.event) -> (e.time + delay ~amount e.time i, i, e))
      (Stream.events stream)
  in
  let sorted = List.sort compare keyed in
  let events = List.map (fun (_, _, e) -> e) sorted in
  (* The grid origin freezes at the first processed query: a minimal-time
     event must be ingested before the first tick, or the whole grid
     would shift (and the straggler be dropped as pre-origin). Batch
     ingestion knows the extent up front; a live deployment would learn
     [lo] from its first in-order prefix the same way. *)
  let t0 = fst (Stream.extent stream) in
  match List.partition (fun (e : Stream.event) -> e.time = t0) events with
  | first :: _, _ ->
    first :: List.filter (fun (e : Stream.event) -> e != first) events
  | [], _ -> events

let rec chunks n = function
  | [] -> []
  | items ->
    let rec take k acc = function
      | rest when k = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | x :: rest -> take (k - 1) (x :: acc) rest
    in
    let chunk, rest = take n [] items in
    chunk :: chunks n rest

(* Replay the stream out of order against a live service: input fluents
   first (timeless inputs), then events in perturbed delivery order in
   small batches, ticking on watermark progress, and a final drain. *)
let replay ~jobs ~compile ~horizon ~event_description ~knowledge ~stream () =
  let svc =
    Service.create
      ~config:(Service.config ~window:3600 ~step:1800 ~jobs ~compile ~horizon ())
      ~event_description ~knowledge ()
  in
  Service.ingest svc
    (List.map (fun (fv, spans) -> Stream.Fluent (fv, spans)) (Stream.input_fluents stream));
  let last_tick = ref None in
  List.iter
    (fun chunk ->
      Service.ingest svc (List.map (fun e -> Stream.Event e) chunk);
      match Service.watermark svc with
      | Some wm
        when (match !last_tick with None -> true | Some t -> wm >= t + 1800) -> (
        match Service.tick svc ~now:wm with
        | Ok _ -> last_tick := Some wm
        | Error e -> Alcotest.failf "tick failed: %s" e)
      | _ -> ())
    (chunks 64 (out_of_order_events ~amount:1500 stream));
  match Service.drain svc with
  | Ok (r : Service.result) -> (exact (Lazy.force r.intervals), r.stats)
  | Error e -> Alcotest.failf "drain failed: %s" e

let check_convergence ~name ~event_description ~knowledge ~stream =
  List.iter
    (fun (jobs, compile) ->
      let expected = batch ~jobs ~compile ~event_description ~knowledge ~stream () in
      Alcotest.(check bool)
        (Printf.sprintf "%s: batch recognises something" name)
        true (expected <> []);
      let streamed, stats =
        replay ~jobs ~compile ~horizon:3600 ~event_description ~knowledge ~stream ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: jobs=%d compile=%b out-of-order replay == batch" name jobs
           compile)
        true (streamed = expected);
      Alcotest.(check bool)
        (Printf.sprintf "%s: jobs=%d replay was actually out of order" name jobs)
        true
        (stats.Service.late_events > 0 && stats.Service.revisions > 0);
      Alcotest.(check int)
        (Printf.sprintf "%s: jobs=%d nothing dropped within horizon" name jobs)
        0 stats.Service.dropped_late;
      Alcotest.(check bool)
        (Printf.sprintf "%s: jobs=%d ingestion used instrumented appends" name jobs)
        true (stats.Service.appends > 0))
    [ (1, true); (4, true); (1, false) ]

let with_provenance f =
  Derivation.reset ();
  Derivation.set_sampling Derivation.Always;
  Derivation.enable ();
  Fun.protect
    ~finally:(fun () ->
      Derivation.disable ();
      Derivation.reset ())
    f

let test_convergence_maritime () =
  let data =
    Maritime.Dataset.generate
      ~config:{ Maritime.Dataset.seed = 99; replicas = 1; nominal = 2 } ()
  in
  check_convergence ~name:"maritime" ~event_description:Maritime.Gold.event_description
    ~knowledge:data.knowledge ~stream:data.stream

let test_convergence_fleet () =
  let stream, knowledge = Fleet.generate () in
  let event_description = Domain.event_description Fleet.domain in
  check_convergence ~name:"fleet" ~event_description ~knowledge ~stream

let test_convergence_provenance () =
  let data =
    Maritime.Dataset.generate
      ~config:{ Maritime.Dataset.seed = 99; replicas = 1; nominal = 2 } ()
  in
  let ed = Maritime.Gold.event_description in
  let expected =
    batch ~jobs:1 ~compile:true ~event_description:ed ~knowledge:data.knowledge
      ~stream:data.stream ()
  in
  with_provenance (fun () ->
      let streamed, _ =
        replay ~jobs:1 ~compile:true ~horizon:3600 ~event_description:ed
          ~knowledge:data.knowledge ~stream:data.stream ()
      in
      Alcotest.(check bool)
        "provenance-on replay == provenance-off batch" true (streamed = expected);
      Alcotest.(check bool)
        "revision replays were recorded" true
        ((Derivation.stats ()).Derivation.records > 0))

(* --- lateness accounting and revision on a hand-built scenario --- *)

let small_ed =
  [
    Parser.parse_definition ~name:"svc"
      "initiatedAt(active(V) = true, T) :- happensAt(start(V), T).\n\
       terminatedAt(active(V) = true, T) :- happensAt(stop(V), T).";
  ]

let event name v t = { Stream.time = t; term = Term.app name [ Term.Atom v ] }

let small_batch events =
  match
    Runtime.run
      ~config:(Runtime.config ~window:10 ~step:10 ())
      ~event_description:small_ed ~knowledge:Knowledge.empty
      ~stream:(Stream.make events) ()
  with
  | Ok (result, _) -> exact result
  | Error e -> Alcotest.failf "batch recognition failed: %s" e

let test_beyond_horizon_drops () =
  let svc =
    Service.create
      ~config:(Service.config ~window:10 ~step:10 ~horizon:5 ())
      ~event_description:small_ed ~knowledge:Knowledge.empty ()
  in
  Service.ingest svc
    (List.map (fun e -> Stream.Event e) [ event "start" "v1" 1; event "tour" "v1" 40 ]);
  (match Service.tick svc ~now:40 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "tick failed: %s" e);
  (* 38 time-points late with horizon 5: counted and dropped. *)
  Service.ingest svc [ Stream.Event (event "start" "v2" 2) ];
  (* 2 time-points late: accepted, revises v1's windows — the stop must
     retroactively cut the interval the earlier tick left open. *)
  Service.ingest svc [ Stream.Event (event "stop" "v1" 38) ];
  match Service.drain svc with
  | Error e -> Alcotest.failf "drain failed: %s" e
  | Ok (r : Service.result) ->
    let s = r.stats in
    Alcotest.(check int) "two late arrivals" 2 s.late_events;
    Alcotest.(check int) "one beyond the horizon, dropped" 1 s.dropped_late;
    Alcotest.(check int) "one revision pass" 1 s.revisions;
    Alcotest.(check bool)
      "converges to the batch over the accepted events" true
      (exact (Lazy.force r.intervals)
      = small_batch [ event "start" "v1" 1; event "tour" "v1" 40; event "stop" "v1" 38 ])

let test_ttl_eviction () =
  let v2_events = List.init 6 (fun i -> event "start" "v2" ((10 * i) + 1)) in
  let all = event "start" "v1" 1 :: event "stop" "v1" 5 :: v2_events in
  let svc =
    Service.create
      ~config:(Service.config ~window:10 ~step:10 ~ttl:15 ())
      ~event_description:small_ed ~knowledge:Knowledge.empty ()
  in
  List.iter
    (fun (e : Stream.event) ->
      Service.ingest svc [ Stream.Event e ];
      match Service.tick svc ~now:e.time with
      | Ok _ -> ()
      | Error err -> Alcotest.failf "tick failed: %s" err)
    (List.sort (fun (a : Stream.event) b -> compare a.time b.time) all);
  match Service.drain svc with
  | Error e -> Alcotest.failf "drain failed: %s" e
  | Ok (r : Service.result) ->
    let s = r.stats in
    Alcotest.(check int) "v1 evicted" 1 s.entities_evicted;
    Alcotest.(check int) "v2 still active" 1 s.entities_active;
    Alcotest.(check bool)
      "evicted history stays frozen in the result" true
      (exact (Lazy.force r.intervals) = small_batch all)

(* --- bounded memory at horizon 0 --- *)

(* The serve default: horizon 0, in-order delivery, a tick at every grid
   step once the watermark has passed it. Nothing can be revised, so each
   tick trims every bucket to the window after the last query: a bucket
   never holds an event older than two windows before that query (the
   trim waits for a full window of droppable history). The session must
   still recognise exactly what the batch run does. *)
let check_bounded_h0 ~name ~event_description ~knowledge ~stream =
  let w = 3600 and s = 1800 in
  let expected = batch ~jobs:1 ~compile:true ~event_description ~knowledge ~stream () in
  let svc =
    Service.create ~config:(Service.config ~window:w ~step:s ()) ~event_description ~knowledge ()
  in
  Service.ingest svc
    (List.map (fun (fv, spans) -> Stream.Fluent (fv, spans)) (Stream.input_fluents stream));
  let events = Array.of_list (Stream.events stream) in
  let first_q = fst (Stream.extent stream) + w - 1 in
  let ingested = ref 0 and last_tick = ref None and ticks = ref 0 and peak = ref 0 in
  List.iter
    (fun chunk ->
      Service.ingest svc (List.map (fun e -> Stream.Event e) chunk);
      ingested := !ingested + List.length chunk;
      (* Every event up to [now] has arrived: the next one is later. *)
      let now = Option.get (Service.watermark svc) - 1 in
      if now >= first_q && match !last_tick with None -> true | Some t -> now >= t + s
      then
        match Service.tick svc ~now with
        | Error e -> Alcotest.failf "tick failed: %s" e
        | Ok r ->
          last_tick := Some now;
          incr ticks;
          let last_q = first_q + ((now - first_q) / s * s) in
          let bound = ref 0 in
          for i = 0 to !ingested - 1 do
            if events.(i).Stream.time >= last_q - (2 * w) + 2 then incr bound
          done;
          peak := max !peak r.stats.retained_events;
          if r.stats.retained_events > !bound then
            Alcotest.failf "%s: %d events retained after the query at %d, bound %d" name
              r.stats.retained_events last_q !bound)
    (chunks 64 (Array.to_list events));
  match Service.drain svc with
  | Error e -> Alcotest.failf "drain failed: %s" e
  | Ok (r : Service.result) ->
    Alcotest.(check bool) (name ^ ": a long ticked session") true (!ticks >= 8);
    Alcotest.(check int) (name ^ ": nothing late") 0 r.stats.late_events;
    Alcotest.(check bool)
      (name ^ ": history was trimmed")
      true
      (!peak < Array.length events / 2 && r.stats.retained_events < Array.length events);
    Alcotest.(check bool) (name ^ ": batch recognises something") true (expected <> []);
    Alcotest.(check bool)
      (name ^ ": horizon-0 ticked session == batch")
      true
      (exact (Lazy.force r.intervals) = expected)

let test_bounded_h0_maritime () =
  let data =
    Maritime.Dataset.generate
      ~config:{ Maritime.Dataset.seed = 99; replicas = 1; nominal = 2 } ()
  in
  check_bounded_h0 ~name:"maritime" ~event_description:Maritime.Gold.event_description
    ~knowledge:data.knowledge ~stream:data.stream

(* [intDurGreater] makes the description window-sensitive, so every
   query re-evaluates its whole window instead of the delta since the
   last one: a trim that cut into the next window would show. *)
let test_bounded_h0_window_sensitive () =
  let data =
    Maritime.Dataset.generate
      ~config:{ Maritime.Dataset.seed = 99; replicas = 1; nominal = 2 } ()
  in
  let long_underway =
    Parser.parse_definition ~name:"longUnderWay"
      "holdsFor(longUnderWay(Vessel)=true, I) :- \
       holdsFor(underWay(Vessel)=true, I1), intDurGreater(I1, 1200, I)."
  in
  let event_description = Maritime.Gold.event_description @ [ long_underway ] in
  Alcotest.(check bool)
    "description is window-sensitive" false
    (Dependency.window_insensitive event_description);
  check_bounded_h0 ~name:"maritime+intDurGreater" ~event_description
    ~knowledge:data.knowledge ~stream:data.stream

let test_bounded_h0_fleet () =
  let stream, knowledge =
    Fleet.generate ~config:{ Fleet.default_config with hours = 12 } ()
  in
  check_bounded_h0 ~name:"fleet"
    ~event_description:(Domain.event_description Fleet.domain)
    ~knowledge ~stream

let suite =
  [
    Alcotest.test_case "out-of-order replay == batch (maritime)" `Quick
      test_convergence_maritime;
    Alcotest.test_case "out-of-order replay == batch (fleet)" `Quick
      test_convergence_fleet;
    Alcotest.test_case "out-of-order replay == batch (provenance on)" `Quick
      test_convergence_provenance;
    Alcotest.test_case "beyond-horizon items are counted and dropped" `Quick
      test_beyond_horizon_drops;
    Alcotest.test_case "idle entities are evicted, history frozen" `Quick
      test_ttl_eviction;
    Alcotest.test_case "horizon-0 ticking keeps two windows (maritime)" `Quick
      test_bounded_h0_maritime;
    Alcotest.test_case "horizon-0 ticking keeps two windows (fleet)" `Quick
      test_bounded_h0_fleet;
    Alcotest.test_case "horizon-0 ticking keeps two windows (window-sensitive)" `Quick
      test_bounded_h0_window_sensitive;
  ]
