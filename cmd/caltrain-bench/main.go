// Command caltrain-bench regenerates the paper's evaluation tables and
// figures (§VI) on the synthetic substrates.
//
// Usage:
//
//	caltrain-bench -exp all                 # everything, default scale
//	caltrain-bench -exp fig3,fig4           # Experiment I only
//	caltrain-bench -exp fig6 -scale 4       # Experiment III, bigger nets
//	caltrain-bench -exp fig7,fig8           # the accountability study
//
// Experiments: tables, fig3, fig4, fig5, fig6, fig7, fig8, all.
// Larger -scale values shrink the networks (filter counts are divided by
// scale); -scale 1 is the exact paper architecture (slow in pure Go).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"caltrain/internal/experiments"
	"caltrain/internal/nn"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "caltrain-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp      = flag.String("exp", "all", "comma-separated experiments: tables,fig3,fig4,fig5,fig6,fig7,fig8,security,all")
		scale    = flag.Int("scale", 0, "architecture scale divisor (1 = exact paper networks)")
		perClass = flag.Int("per-class", 0, "training images per class")
		epochs   = flag.Int("epochs", 0, "training epochs (paper: 12)")
		batch    = flag.Int("batch", 0, "mini-batch size")
		parties  = flag.Int("participants", 0, "number of training participants")
		seed     = flag.Uint64("seed", 0, "experiment seed")
	)
	flag.Parse()

	p := experiments.Defaults()
	if *scale > 0 {
		p.Scale = *scale
	}
	if *perClass > 0 {
		p.TrainPerClass = *perClass
	}
	if *epochs > 0 {
		p.Epochs = *epochs
	}
	if *batch > 0 {
		p.BatchSize = *batch
	}
	if *parties > 0 {
		p.Participants = *parties
	}
	if *seed > 0 {
		p.Seed = *seed
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	w := os.Stdout

	runOne := func(name string, fn func() error) error {
		fmt.Fprintf(w, ">>> %s\n", name)
		start := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(w, "<<< %s done in %s\n\n", name, time.Since(start).Round(time.Millisecond))
		return nil
	}

	if all || want["tables"] {
		if err := runOne("tables", func() error { return experiments.Tables(p, w) }); err != nil {
			return err
		}
	}
	if all || want["fig3"] {
		err := runOne("fig3 (Experiment I, 10-layer)", func() error {
			_, err := experiments.RunExperimentI(nn.TableI(p.Scale), p, w)
			return err
		})
		if err != nil {
			return err
		}
	}
	if all || want["fig4"] {
		err := runOne("fig4 (Experiment I, 18-layer)", func() error {
			_, err := experiments.RunExperimentI(nn.TableII(p.Scale), p, w)
			return err
		})
		if err != nil {
			return err
		}
	}
	if all || want["fig5"] {
		err := runOne("fig5 (Experiment II, exposure assessment)", func() error {
			_, err := experiments.RunExperimentII(experiments.ExpIIParams{Params: p}, w)
			return err
		})
		if err != nil {
			return err
		}
	}
	if all || want["fig6"] {
		err := runOne("fig6 (Experiment III, training overhead)", func() error {
			_, err := experiments.RunExperimentIII(p, w)
			return err
		})
		if err != nil {
			return err
		}
	}
	if all || want["security"] {
		err := runOne("security (§VII attack analysis)", func() error {
			_, err := experiments.RunSecurity(p, w)
			return err
		})
		if err != nil {
			return err
		}
	}
	if all || want["fig7"] || want["fig8"] {
		err := runOne("fig7+fig8 (Experiment IV, accountability)", func() error {
			sc, err := experiments.BuildScenario(experiments.ExpIVParams{Params: p})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "trojaning attack: success %.1f%%, clean accuracy %.1f%%\n\n",
				100*sc.Attack.SuccessRate, 100*sc.Attack.CleanAccuracy)
			if all || want["fig7"] {
				if _, err := experiments.RunFig7(sc, w); err != nil {
					return err
				}
			}
			if all || want["fig8"] {
				if _, err := experiments.RunFig8(sc, w); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}
