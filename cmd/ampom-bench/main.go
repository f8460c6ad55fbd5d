// Command ampom-bench regenerates the tables and figures of the paper's
// evaluation (Table 1, Figures 4–11) plus the repository's ablation
// studies, printing the same rows and series the paper reports.
//
// Usage:
//
//	ampom-bench                        # every figure at paper scale
//	ampom-bench -scale 16              # quick 1/16-scale pass
//	ampom-bench -figure fig7 -csv      # one figure, CSV output
//	ampom-bench -ablations             # the ablation studies as well
//	ampom-bench -j 8 -progress         # 8 workers, progress/ETA on stderr
//	ampom-bench -parallel=false        # force strictly sequential runs
//
// The experiment matrix is fanned out across a worker pool; per-job seeds
// are derived from the job key, so any -j value renders byte-identical
// tables.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ampom"
	"ampom/internal/cli"
)

func main() {
	scale := flag.Int64("scale", 1, "divide every Table 1 footprint by this (1 = paper scale)")
	figure := flag.String("figure", "all", "which artefact to print: all, table1, fig4..fig11")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	ablations := flag.Bool("ablations", false, "also run the ablation studies")
	progress := flag.Bool("progress", false, "report campaign progress and ETA on stderr")
	cf := cli.AddCampaignFlags(flag.CommandLine)
	flag.Parse()
	if *scale < 1 {
		cli.Usage("-scale %d: want a divisor of at least 1", *scale)
	}

	cfg := ampom.CampaignConfig{Scale: *scale, Seed: cf.Seed, Workers: cf.Workers()}
	if *progress {
		cfg.Progress = func(p ampom.CampaignProgress) {
			fmt.Fprintf(os.Stderr, "\rcampaign: %d/%d done (%d failed) elapsed %v eta %v    ",
				p.Done, p.Total, p.Failed, p.Elapsed.Round(1e8), p.ETA.Round(1e8))
			if p.Done == p.Total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	c := ampom.NewCampaign(cfg)

	selected := map[string]func() *ampom.FigureTable{
		"table1": c.Table1,
		"fig4":   c.Figure4,
		"fig5":   c.Figure5,
		"fig6":   c.Figure6,
		"fig7":   c.Figure7,
		"fig8":   c.Figure8,
		"fig9":   c.Figure9,
		"fig10":  c.Figure10,
		"fig11":  c.Figure11,
	}
	order := []string{"table1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"}
	name := strings.ToLower(*figure)
	if _, ok := selected[name]; name != "all" && !ok {
		cli.Usage("unknown figure %q (want all, table1, fig4..fig11)", *figure)
	}

	// Fan the requested matrix out up front: every failure is reported, not
	// just the first, and rendering then reads warm cache. Single figures
	// prewarm just their own cells, so -j and -progress apply there too. A
	// partial failure does not abort the run: the healthy artefacts still
	// render below, and the exit code reports the damage.
	exitCode := cli.CodeOK
	var err error
	switch {
	case name == "all" && *ablations:
		err = c.Prewarm()
	case name == "all":
		err = c.PrewarmFigures()
	default:
		err = c.PrewarmFigure(name)
		if err == nil && *ablations {
			err = c.PrewarmAblations()
		}
	}
	if err != nil {
		cli.Errorf("%v", err)
		exitCode = cli.CodeFail
	}

	// render generates one artefact, skipping (not aborting) those whose
	// cells failed during the prewarm.
	var tables []*ampom.FigureTable
	render := func(artefact string, gen func() *ampom.FigureTable) {
		defer func() {
			if r := recover(); r != nil {
				cli.Errorf("skipping %s: %v", artefact, r)
				exitCode = cli.CodeFail
			}
		}()
		tables = append(tables, gen())
	}

	if name == "all" {
		for _, n := range order {
			render(n, selected[n])
		}
	} else {
		render(name, selected[name])
	}
	if *ablations {
		for _, a := range []struct {
			name string
			gen  func() *ampom.FigureTable
		}{
			{"ablation-schemes", c.AblationSchemes},
			{"ablation-baseline", c.AblationBaseline},
			{"ablation-window", c.AblationWindow},
			{"ablation-dmax", c.AblationDMax},
			{"ablation-cap", c.AblationCap},
		} {
			render(a.name, a.gen)
		}
	}

	for i, t := range tables {
		if i > 0 {
			fmt.Println()
		}
		if *csv {
			fmt.Printf("# %s\n%s", t.Title, t.CSV())
		} else {
			fmt.Print(t.Render())
		}
	}
	cli.Exit(exitCode)
}
