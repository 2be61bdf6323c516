// Chatexplore: the Section-5 scenario — iterative data exploration
// through a two-way conversation. The same scripted exchange is replayed
// through all three dialogue-manager families to show the flexibility
// ladder: finite-state < frame-based < agent-based.
package main

import (
	"context"
	"fmt"
	"log"

	"nlidb/internal/athena"
	"nlidb/internal/benchdata"
	"nlidb/internal/dialogue"
	"nlidb/internal/invindex"
	"nlidb/internal/lexicon"
	"nlidb/internal/nlq"
	"nlidb/internal/ontology"
	"nlidb/internal/resilient"
)

func main() {
	d := benchdata.Hospital(11)
	lex := lexicon.New()
	ix := invindex.Build(d.DB, lex)

	// Bootstrap the conversation artifacts from the ontology (Quamar et
	// al.): intents, training utterances, and entity value lists — no
	// manual labelling.
	arts := dialogue.Bootstrap(d.DB, ontology.FromDatabase(d.DB), 11)
	exCount := 0
	for _, in := range arts.Intents {
		exCount += len(in.Examples)
	}
	fmt.Printf("bootstrap: %d intents, %d training utterances, %d entities generated from the ontology\n",
		len(arts.Intents), exCount, len(arts.Entities))
	cls, err := dialogue.TrainIntentClassifier(arts, 11)
	if err != nil {
		log.Fatal(err)
	}
	for _, u := range []string{"how many doctors are there", "those with salary over 100000"} {
		name, p := cls.Classify(u)
		fmt.Printf("intent(%q) = %s (%.2f)\n", u, name, p)
	}
	fmt.Println()

	script := []string{
		"hello",
		"show doctors of the department cardiology",
		"only those with salary over 100000",
		"how many are there",
		"what about their experience instead",
		"reset",
	}

	// Dialogue turns are served through the same resilient gateway as
	// the serving stack — plans, budgets, and traces included — here with
	// athena as its one engine.
	back := resilient.New(d.DB, []nlq.Interpreter{athena.New(d.DB, ix, lex)}, resilient.Config{NoTrace: true, NoRetry: true})
	managers := []dialogue.Manager{
		dialogue.NewFiniteState(back),
		dialogue.NewFrame(ix, back),
		dialogue.NewAgent(ix, back),
	}

	for _, mgr := range managers {
		fmt.Printf("=== %s manager ===\n", mgr.Name())
		mgr.Reset()
		for _, u := range script {
			resp, err := mgr.Respond(context.Background(), u)
			fmt.Printf("user  > %s\n", u)
			switch {
			case err != nil:
				fmt.Printf("system> (failed) %s\n", resp.Message)
			case resp.SQL != nil:
				fmt.Printf("system> %s  →  %s\n", resp.Message, resp.SQL)
			default:
				fmt.Printf("system> %s\n", resp.Message)
			}
		}
		fmt.Println()
	}
}
