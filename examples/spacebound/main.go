// Spacebound walks the whole lower-bound construction at n=3, printing each
// artifact of the paper's proof as it is built: the bivalent initial
// configuration (Proposition 2), Lemma 4's covering configuration, Lemma 3's
// critical process, Lemma 2's forced outside write, and the final witness —
// with the full execution transcript.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/adversary"
	"repro/internal/consensus"
	"repro/internal/explore"
	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/valency"
)

func main() {
	machine := consensus.DiskRace{}
	oracle := valency.New(explore.Options{Canon: machine})
	engine := adversary.New(oracle)
	const n = 3

	initial, err := engine.InitialBivalent(context.Background(), machine, n)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Proposition 2: initial configuration with inputs (0,1,1) is bivalent for {p0,p1}")

	all := []int{0, 1, 2}
	l4, err := engine.Lemma4(context.Background(), initial, all)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Lemma 4: after %d steps, pair %v is bivalent and %d process(es) cover distinct registers %v\n",
		len(l4.Alpha), l4.Q, len(l4.Covered), l4.Covered)

	r := model.Without(all, l4.Q...)
	phi, q, err := engine.Lemma3(context.Background(), l4.Config, all, r)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Lemma 3: Q-only execution of %d steps makes R∪{p%d} bivalent after the block write\n",
		len(phi), q)

	var z int
	for _, pid := range l4.Q {
		if pid != q {
			z = pid
		}
	}
	afterPhi := model.RunPath(l4.Config, phi)
	zeta, outside, err := engine.Lemma2(context.Background(), afterPhi, r, z)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Lemma 2: p%d's solo deciding run is forced to write register %d, outside the cover\n",
		z, outside)

	w, err := engine.Theorem1(context.Background(), machine, n)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nTheorem 1: %v\n\n", w)
	fmt.Print(trace.CoverTable(w))
	fmt.Println("\nwitness execution transcript:")
	fmt.Print(trace.Transcript(initial, w.Execution))
	_ = zeta
}
