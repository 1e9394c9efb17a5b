open Pf_sim

(* {1 Engine} *)

let test_engine_order () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.schedule eng ~at:50 (fun () -> log := 50 :: !log);
  Engine.schedule eng ~at:10 (fun () -> log := 10 :: !log);
  Engine.schedule eng ~at:30 (fun () -> log := 30 :: !log);
  Engine.run eng;
  Alcotest.(check (list int)) "time order" [ 10; 30; 50 ] (List.rev !log);
  Alcotest.(check int) "clock at last event" 50 (Engine.now eng)

let test_engine_same_time_fifo () =
  let eng = Engine.create () in
  let log = ref [] in
  for i = 1 to 20 do
    Engine.schedule eng ~at:5 (fun () -> log := i :: !log)
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "fifo among equals" (List.init 20 (fun i -> i + 1))
    (List.rev !log)

let test_engine_schedule_past () =
  let eng = Engine.create () in
  let ran_at = ref (-1) in
  Engine.schedule eng ~at:100 (fun () ->
      Engine.schedule eng ~at:10 (fun () -> ran_at := Engine.now eng));
  Engine.run eng;
  Alcotest.(check int) "past events run now" 100 !ran_at

let test_engine_until () =
  let eng = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    Engine.schedule eng ~at:(i * 100) (fun () -> incr count)
  done;
  Engine.run ~until:450 eng;
  Alcotest.(check int) "only first four" 4 !count;
  Alcotest.(check int) "clock at limit" 450 (Engine.now eng);
  Engine.run eng;
  Alcotest.(check int) "rest run later" 10 !count

(* {1 CPU} *)

let test_cpu_serializes () =
  let cpu = Cpu.create Costs.free in
  let f1 = Cpu.run cpu ~owner:(`Proc 1) ~start:0 ~cost:100 in
  let f2 = Cpu.run cpu ~owner:(`Proc 1) ~start:0 ~cost:50 in
  Alcotest.(check int) "first ends at 100" 100 f1;
  Alcotest.(check int) "second queued behind" 150 f2;
  Alcotest.(check int) "same proc, no switches" 0 (Cpu.context_switches cpu)

let test_cpu_context_switch () =
  let cpu = Cpu.create Costs.microvax_ii in
  let _ = Cpu.run cpu ~owner:(`Proc 1) ~start:0 ~cost:100 in
  let f2 = Cpu.run cpu ~owner:(`Proc 2) ~start:100 ~cost:100 in
  Alcotest.(check int) "0.4ms switch charged" 600 f2;
  Alcotest.(check int) "one switch" 1 (Cpu.context_switches cpu);
  (* Interrupt work neither charges nor changes ownership. *)
  let f3 = Cpu.run cpu ~owner:`Interrupt ~start:600 ~cost:10 in
  Alcotest.(check int) "interrupt free of switch" 610 f3;
  let f4 = Cpu.run cpu ~owner:(`Proc 2) ~start:610 ~cost:10 in
  Alcotest.(check int) "proc 2 still current" 620 f4;
  Alcotest.(check int) "still one switch" 1 (Cpu.context_switches cpu)

(* {1 Processes} *)

let test_process_cpu_and_pause () =
  let eng = Engine.create () in
  let cpu = Cpu.create Costs.free in
  let finish = ref 0 in
  let p =
    Process.spawn eng cpu ~name:"worker" (fun () ->
        Process.use_cpu 100;
        Process.pause 1000;
        Process.use_cpu 50;
        finish := Engine.now eng)
  in
  Engine.run eng;
  Alcotest.(check int) "timeline" 1150 !finish;
  Alcotest.(check bool) "dead" true (Process.state p = `Dead)

let test_two_processes_interleave () =
  let eng = Engine.create () in
  let cpu = Cpu.create Costs.microvax_ii in
  let order = ref [] in
  let mk name =
    Process.spawn eng cpu ~name (fun () ->
        for i = 1 to 3 do
          Process.use_cpu 100;
          order := (name, i, Engine.now eng) :: !order;
          Process.pause 50
        done)
  in
  let _a = mk "a" and _b = mk "b" in
  Engine.run eng;
  Alcotest.(check int) "six steps" 6 (List.length !order);
  Alcotest.(check bool) "context switches occurred" true (Cpu.context_switches cpu > 0)

let test_condition_signal_and_timeout () =
  let eng = Engine.create () in
  let cpu = Cpu.create Costs.free in
  let cond : int Condition.t = Condition.create () in
  let got = ref [] in
  let _c =
    Process.spawn eng cpu ~name:"consumer" (fun () ->
        got := Condition.await ~timeout:100 cond :: !got;
        got := Condition.await ~timeout:100 cond :: !got)
  in
  let _p =
    Process.spawn eng cpu ~name:"producer" (fun () ->
        Process.pause 50;
        ignore (Condition.signal cond 42 : bool))
  in
  Engine.run eng;
  Alcotest.(check (list (option int))) "one value then timeout" [ Some 42; None ]
    (List.rev !got)

let test_signal_with_no_waiters () =
  let cond : int Condition.t = Condition.create () in
  Alcotest.(check bool) "signal returns false" false (Condition.signal cond 1)

let test_broadcast () =
  let eng = Engine.create () in
  let cpu = Cpu.create Costs.free in
  let cond : unit Condition.t = Condition.create () in
  let woken = ref 0 in
  for _ = 1 to 5 do
    ignore
      (Process.spawn eng cpu ~name:"waiter" (fun () ->
           match Condition.await cond with Some () -> incr woken | None -> ()))
  done;
  let _p =
    Process.spawn eng cpu ~name:"broadcaster" (fun () ->
        Process.pause 10;
        ignore (Condition.broadcast cond () : int))
  in
  Engine.run eng;
  Alcotest.(check int) "all five woken" 5 !woken

let test_join () =
  let eng = Engine.create () in
  let cpu = Cpu.create Costs.free in
  let done_at = ref (-1) in
  let worker = Process.spawn eng cpu ~name:"w" (fun () -> Process.pause 500) in
  let _watcher =
    Process.spawn eng cpu ~name:"j" (fun () ->
        Process.join worker;
        done_at := Engine.now eng)
  in
  Engine.run eng;
  Alcotest.(check int) "join wakes at worker exit" 500 !done_at

let test_stale_waiter_skipped () =
  (* A waiter that times out must not swallow a later signal. *)
  let eng = Engine.create () in
  let cpu = Cpu.create Costs.free in
  let cond : int Condition.t = Condition.create () in
  let first = ref None and second = ref None in
  let _w1 =
    Process.spawn eng cpu ~name:"w1" (fun () -> first := Condition.await ~timeout:10 cond)
  in
  let _w2 =
    Process.spawn eng cpu ~name:"w2" (fun () ->
        Process.pause 5;
        second := Condition.await cond)
  in
  let _p =
    Process.spawn eng cpu ~name:"p" (fun () ->
        Process.pause 100;
        ignore (Condition.signal cond 7 : bool))
  in
  Engine.run eng;
  Alcotest.(check (option int)) "w1 timed out" None !first;
  Alcotest.(check (option int)) "w2 got the value" (Some 7) !second

(* A waiter whose timeout fires takes itself off the condition, so idle
   timed reads neither grow the waiter queue nor keep their processes'
   continuations alive for the next signal to walk. *)
let test_timed_out_waiters_leave () =
  let eng = Engine.create () in
  let cpu = Cpu.create Costs.free in
  let cond : unit Condition.t = Condition.create () in
  let timed_out = ref 0 in
  let _w =
    Process.spawn eng cpu ~name:"reader" (fun () ->
        for _ = 1 to 1000 do
          match Condition.await ~timeout:10 cond with
          | Some () -> ()
          | None -> incr timed_out
        done)
  in
  Engine.run eng;
  Alcotest.(check int) "every await timed out" 1000 !timed_out;
  Alcotest.(check bool) "no waiter left" false (Condition.has_waiters cond);
  (* A timed-out waiter leaves the others queued, in their order. *)
  let got = ref [] in
  let spawn_waiter name timeout =
    ignore
      (Process.spawn eng cpu ~name (fun () ->
           match Condition.await ?timeout cond with
           | Some () -> got := name :: !got
           | None -> ())
        : Process.t)
  in
  spawn_waiter "a" None;
  spawn_waiter "b" (Some 5);
  spawn_waiter "c" None;
  Engine.run ~until:(Engine.now eng + 10) eng;
  Alcotest.(check int) "two woken by two signals" 2 (Condition.broadcast cond ());
  Engine.run eng;
  Alcotest.(check (list string)) "in waiting order" [ "a"; "c" ] (List.rev !got)

(* {1 Allocation per wake-up}

   Per-event budgets on the host clock, in minor words: the heap boxes
   nothing per event, and a process wake-up allocates one closure plus what
   the effect runtime itself needs. *)

let test_engine_event_allocates_nothing () =
  let eng = Engine.create () in
  let ran = ref 0 in
  let event () = incr ran in
  Engine.schedule eng ~at:1 event;
  Engine.run eng;
  let words =
    Testutil.minor_words (fun () ->
        for _ = 1 to 1000 do
          Engine.schedule eng ~at:(Engine.now eng + 1) event;
          Engine.schedule eng ~at:(Engine.now eng + 1) event;
          Engine.run eng
        done)
  in
  Alcotest.(check int) "every event ran" 2001 !ran;
  Alcotest.(check (float 0.)) "minor words per event" 0. (words /. 2000.)

(* Warm the process up, then measure [rounds] of its loop to the end. *)
let words_per_round eng ~rounds ~warm =
  Engine.run ~until:warm eng;
  Testutil.minor_words (fun () -> Engine.run eng) /. float_of_int rounds

let test_use_cpu_allocation () =
  let eng = Engine.create () in
  let cpu = Cpu.create Costs.free in
  let _p =
    Process.spawn eng cpu ~name:"worker" (fun () ->
        for _ = 1 to 1100 do
          Process.use_cpu 1
        done)
  in
  let words = words_per_round eng ~rounds:1000 ~warm:100 in
  Alcotest.(check int) "all the work ran" 1100 (Engine.now eng);
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per use_cpu round trip <= 20" words)
    true (words <= 20.)

let test_await_signal_allocation () =
  let eng = Engine.create () in
  let cpu = Cpu.create Costs.free in
  let cond : unit Condition.t = Condition.create () in
  let woken = ref 0 in
  let _w =
    Process.spawn eng cpu ~name:"waiter" (fun () ->
        for _ = 1 to 1100 do
          match Condition.await cond with Some () -> incr woken | None -> ()
        done)
  in
  (* The signaller is one closure, rescheduled: it allocates nothing. *)
  let rec tick () =
    if Condition.signal cond () then Engine.schedule_after eng 1 tick
  in
  Engine.schedule_after eng 1 tick;
  let words = words_per_round eng ~rounds:1000 ~warm:100 in
  Alcotest.(check int) "every await woken" 1100 !woken;
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per await/signal round <= 52" words)
    true (words <= 52.)

(* The SMP receive path takes the delivery lock once per accepted packet
   and once per dequeue, and runs a process per wake-up: lock ownership
   and the CPU's last process are plain ints, so neither boxes. *)

let test_lock_pair_allocates_nothing () =
  let smp = Smp.create ~ncpus:2 (Engine.create ()) Costs.microvax_ii in
  let l = Smp.Lock.create smp in
  let words =
    Testutil.minor_words (fun () ->
        for k = 1 to 1000 do
          let cpu = k land 1 in
          ignore (Smp.Lock.acquire l ~cpu ~start:(k * 100) ~hold:0 : Time.t);
          Smp.Lock.release l ~cpu
        done)
  in
  Alcotest.(check int) "every pair acquired" 1000 (Smp.Lock.acquisitions l);
  Alcotest.(check int) "no misuse" 0 (List.length (Smp.Lock.misuses l));
  Alcotest.(check (float 0.)) "minor words per acquire + release" 0.
    (words /. 1000.)

let test_cpu_run_allocates_nothing () =
  let cpu = Cpu.create Costs.microvax_ii in
  let a = `Proc 1 and b = `Proc 2 in
  let words =
    Testutil.minor_words (fun () ->
        for k = 1 to 1000 do
          let owner = if k land 1 = 0 then a else b in
          ignore (Cpu.run cpu ~owner ~start:0 ~cost:1 : Time.t);
          if k mod 10 = 0 then Cpu.mark_descheduled cpu
        done)
  in
  Alcotest.(check int) "every run after the first switched" 999
    (Cpu.context_switches cpu);
  Alcotest.(check (float 0.)) "minor words per run" 0. (words /. 1000.)

(* {1 Stats & Rng} *)

let test_stats () =
  let s = Stats.create () in
  Stats.incr s "a";
  Stats.incr ~by:4 s "a";
  Stats.incr s "b";
  Alcotest.(check int) "a" 5 (Stats.get s "a");
  Alcotest.(check int) "untouched" 0 (Stats.get s "zz");
  Alcotest.(check (list (pair string int))) "pairs sorted" [ ("a", 5); ("b", 1) ]
    (Stats.pairs s)

let pairs = Alcotest.(list (pair string int))
let listing s = Format.asprintf "%a" Stats.pp s

let test_counter_unbumped_is_unlisted () =
  let s = Stats.create () in
  let (_ : Stats.counter) = Stats.counter s "held" in
  Alcotest.check pairs "not in pairs" [] (Stats.pairs s);
  Alcotest.(check string) "not in pp" "" (listing s);
  Alcotest.(check int) "get reads 0" 0 (Stats.get s "held");
  Stats.incr s "other";
  Alcotest.check pairs "only the bumped one" [ ("other", 1) ] (Stats.pairs s)

let test_counter_and_incr_share () =
  let s = Stats.create () in
  let c = Stats.counter s "x" in
  Stats.bump c;
  Stats.incr s "x";
  Stats.add c 5;
  Stats.incr ~by:2 s "x";
  Stats.bump (Stats.counter s "x");
  Alcotest.(check int) "one counter, whichever way it is bumped" 10 (Stats.get s "x");
  Alcotest.check pairs "listed once" [ ("x", 10) ] (Stats.pairs s)

let test_counter_add_zero_lists () =
  let by_handle = Stats.create () and by_name = Stats.create () in
  Stats.add (Stats.counter by_handle "z") 0;
  Stats.incr ~by:0 by_name "z";
  Alcotest.check pairs "add 0 lists it" [ ("z", 0) ] (Stats.pairs by_handle);
  Alcotest.check pairs "as incr ~by:0 does" (Stats.pairs by_name) (Stats.pairs by_handle);
  Alcotest.(check string) "same pp" (listing by_name) (listing by_handle)

let test_counter_survives_reset () =
  let s = Stats.create () in
  let c = Stats.counter s "r" in
  Stats.add c 7;
  Stats.reset s;
  Alcotest.(check int) "reads 0" 0 (Stats.get s "r");
  Alcotest.check pairs "unlisted" [] (Stats.pairs s);
  Stats.bump c;
  Alcotest.(check int) "counts again" 1 (Stats.get s "r");
  Alcotest.check pairs "listed again" [ ("r", 1) ] (Stats.pairs s)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  let xs = List.init 20 (fun _ -> Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed same stream" xs ys;
  List.iter (fun x -> Alcotest.(check bool) "in range" true (x >= 0 && x < 1000)) xs

let test_rng_exponential_positive () =
  let r = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "positive" true (Rng.exponential r ~mean:100. >= 0.)
  done

let test_time () =
  Alcotest.(check int) "ms" 1570 (Time.ms 1.57);
  Alcotest.(check int) "sec" 2_500_000 (Time.sec 2.5);
  Alcotest.(check (float 0.001)) "to_ms" 1.57 (Time.to_ms 1570)

let suite =
  ( "sim",
    [
      Alcotest.test_case "engine time order" `Quick test_engine_order;
      Alcotest.test_case "engine same-time fifo" `Quick test_engine_same_time_fifo;
      Alcotest.test_case "engine schedule in past" `Quick test_engine_schedule_past;
      Alcotest.test_case "engine run until" `Quick test_engine_until;
      Alcotest.test_case "cpu serializes" `Quick test_cpu_serializes;
      Alcotest.test_case "cpu context switch" `Quick test_cpu_context_switch;
      Alcotest.test_case "process cpu+pause" `Quick test_process_cpu_and_pause;
      Alcotest.test_case "two processes" `Quick test_two_processes_interleave;
      Alcotest.test_case "condition signal/timeout" `Quick test_condition_signal_and_timeout;
      Alcotest.test_case "signal without waiters" `Quick test_signal_with_no_waiters;
      Alcotest.test_case "broadcast" `Quick test_broadcast;
      Alcotest.test_case "join" `Quick test_join;
      Alcotest.test_case "stale waiter skipped" `Quick test_stale_waiter_skipped;
      Alcotest.test_case "stats" `Quick test_stats;
      Alcotest.test_case "stats counter: unbumped handle unlisted" `Quick
        test_counter_unbumped_is_unlisted;
      Alcotest.test_case "stats counter: handle and incr share a counter" `Quick
        test_counter_and_incr_share;
      Alcotest.test_case "stats counter: add 0 lists it" `Quick test_counter_add_zero_lists;
      Alcotest.test_case "stats counter: survives reset" `Quick test_counter_survives_reset;
      Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
      Alcotest.test_case "rng exponential" `Quick test_rng_exponential_positive;
      Alcotest.test_case "time conversions" `Quick test_time;
      Alcotest.test_case "timed-out waiters leave the condition" `Quick
        test_timed_out_waiters_leave;
      Alcotest.test_case "engine event allocates nothing" `Quick
        test_engine_event_allocates_nothing;
      Alcotest.test_case "use_cpu round trip allocation" `Quick test_use_cpu_allocation;
      Alcotest.test_case "await/signal round allocation" `Quick test_await_signal_allocation;
      Alcotest.test_case "lock acquire + release allocates nothing" `Quick
        test_lock_pair_allocates_nothing;
      Alcotest.test_case "cpu run allocates nothing" `Quick test_cpu_run_allocates_nothing;
    ] )
