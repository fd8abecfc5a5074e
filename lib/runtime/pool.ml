(* A hand-rolled Domain-based worker pool (no dependencies, matching the
   repo's style): [map] fans an array of tasks out to at most [jobs]
   domains. The calling domain works too, so [jobs = 4] uses exactly four
   compute contexts (three spawned). Tasks are pulled from a shared
   atomic index — cheap dynamic load balancing, no per-task spawn cost —
   and results land in a pre-sized array, one slot per task, so no two
   domains ever write the same location. *)

let map ~jobs ~around f items =
  let n = Array.length items in
  if n = 0 then [||]
  else begin
    let jobs = max 1 (min jobs n) in
    let results = Array.make n None in
    let next = Atomic.make jobs in
    let worker w () =
      (* [around] brackets the whole domain (telemetry fork/join), not
         each task: accumulators are per-domain, not per-shard. Worker
         [w] starts on task [w] ([jobs <= n]), so every granted domain
         computes even when the calling domain could pull every task
         before a spawned one starts; the rest is pulled dynamically. *)
      around ~worker:w (fun () ->
          let rec loop i =
            if i < n then begin
              results.(i) <- Some (f ~worker:w i items.(i));
              loop (Atomic.fetch_and_add next 1)
            end
          in
          loop w)
    in
    if jobs = 1 then worker 0 ()
    else begin
      let domains = Array.init (jobs - 1) (fun k -> Domain.spawn (worker (k + 1))) in
      (* Run the main domain's share before joining; if it raises, the
         spawned domains must still be joined (they drain the queue and
         stop) before the exception escapes. *)
      let main_outcome =
        match worker 0 () with () -> Ok () | exception e -> Error (e, Printexc.get_raw_backtrace ())
      in
      let worker_failure =
        Array.fold_left
          (fun acc d ->
            match Domain.join d with
            | () -> acc
            | exception e -> ( match acc with Some _ -> acc | None -> Some e))
          None domains
      in
      (match main_outcome with
      | Error (e, bt) -> Printexc.raise_with_backtrace e bt
      | Ok () -> ());
      match worker_failure with Some e -> raise e | None -> ()
    end;
    Array.map (function Some r -> r | None -> assert false) results
  end
