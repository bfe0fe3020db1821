type t = {
  id : string;
  aliases : string list;
  title : string;
  tables : ?runs:int -> unit -> Mcs_util.Table.t list;
}

let make id aliases title tables = { id; aliases; title; tables }
let one table ?runs () = [ table ?runs () ]

let all =
  [
    make "table1" [ "t1" ] "Table 1 — platform subsets" (fun ?runs:_ () ->
        [ Table1.table () ]);
    make "fig1" [ "f1" ] "Figure 1 — ready-task vs global ordering"
      Fig_ready_vs_global.tables;
    make "fig2" [ "f2" ] "Figure 2 — mu sweep for WPS-work (random PTGs)"
      Fig_mu_sweep.figure2;
    make "fig3" [ "f3" ] "Figure 3 — 8 strategies on random PTGs"
      Fig_strategies.figure3;
    make "fig4" [ "f4" ] "Figure 4 — 8 strategies on FFT PTGs"
      Fig_strategies.figure4;
    make "fig5" [ "f5" ] "Figure 5 — 6 strategies on Strassen PTGs"
      Fig_strategies.figure5;
    make "x1" [ "constraint" ]
      "X1 — constraint satisfaction audit (Section 4's 99% claim)"
      (one Exp_constraint.table);
    make "x2" [ "packing" ] "X2 — ablation: allocation packing"
      (one (fun ?runs () -> Exp_ablation.packing_table ?runs ()));
    make "x3" [ "scrap" ] "X3 — ablation: SCRAP vs SCRAP-MAX"
      (one (fun ?runs () -> Exp_ablation.procedure_table ?runs ()));
    make "x4" [ "validation" ]
      "X4 — validation: estimated vs simulated makespans"
      (one Exp_validation.table);
    make "x5" [ "arrivals" ]
      "X5 — extension: staggered submission times (future work, Section 8)"
      (one Exp_arrivals.table);
    make "x6" [ "single" ]
      "X6 — extension: single-PTG algorithm families (HEFT / M-HEFT / HCPA)"
      (one Exp_single_ptg.table);
    make "x7" [ "online" ]
      "X7 — extension: online dynamic β vs offline approximation"
      (one Exp_online.table);
    make "x8" [ "faults" ]
      "X8 — extension: fault injection across the eight β strategies"
      (one Exp_faults.table);
    make "x9" [ "malleable" ]
      "X9 — extension: malleable vs moldable execution under bursts"
      (one Exp_malleable.table);
  ]

let find name =
  List.find_opt (fun a -> a.id = name || List.mem name a.aliases) all
