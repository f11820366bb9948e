package checkfence_test

// TestBackendAblation is the public-API backend ablation: the same
// checks run under auto routing and the forced SAT engine, and must
// produce bit-identical verdicts and observation sets. The datatype's
// operations are single global accesses, so the tests compose into
// litmus shapes squarely inside the rf fragment — auto must route them
// to rf, not merely agree, so every row compares rf with SAT.

import (
	"testing"

	"checkfence"
)

func litmusDataType() checkfence.DataType {
	return checkfence.DataType{
		Name: "litmusdt", Kind: "litmus", Source: `
int x;
int y;

void init_lit(int *s) { x = 0; y = 0; }
void wx(int *s) { x = 1; }
void wy(int *s) { y = 1; }
int rx(int *s) { return x; }
int ry(int *s) { return y; }
`,
		InitFunc: "init_lit", Object: "x",
		Ops: []checkfence.Operation{
			{Mnemonic: "a", Func: "wx"},
			{Mnemonic: "b", Func: "wy"},
			{Mnemonic: "c", Func: "rx", HasRet: true},
			{Mnemonic: "d", Func: "ry", HasRet: true},
		},
	}
}

func TestBackendAblation(t *testing.T) {
	notations := []string{
		"( ad | bc )",           // store buffering
		"( ab | dc )",           // message passing
		"( da | cb )",           // load buffering
		"( a | b | cd | dc )",   // IRIW
		"( a | cc )",            // coherent read-read
		"( ad | bc | ab | dc )", // sb and mp combined
	}
	models := []checkfence.Model{
		checkfence.SequentialConsistency, checkfence.TSO,
		checkfence.PSO, checkfence.Relaxed,
	}
	backends := []checkfence.Backend{
		checkfence.BackendAuto, checkfence.BackendSAT,
	}
	dt := litmusDataType()
	for _, notation := range notations {
		for _, model := range models {
			results := make([]*checkfence.Result, len(backends))
			for i, be := range backends {
				res, err := checkfence.CheckDataType(dt, notation,
					checkfence.Options{Model: model, Backend: be})
				if err != nil {
					t.Fatalf("%s on %s (backend %s): %v", notation, model, be, err)
				}
				results[i] = res
			}
			auto, sat := results[0], results[1]
			if auto.Stats.Backend != "rf" {
				t.Errorf("%s on %s: auto routed to %q (%s), want rf",
					notation, model, auto.Stats.Backend, auto.Stats.RouterDecision)
			}
			for i, r := range results {
				if r.Pass != sat.Pass {
					t.Errorf("%s on %s: backend %s pass=%v, sat pass=%v",
						notation, model, backends[i], r.Pass, sat.Pass)
				}
				if !r.Spec.Equal(sat.Spec) {
					t.Errorf("%s on %s: backend %s observation set diverges from SAT (%d vs %d)",
						notation, model, backends[i], r.Spec.Len(), sat.Spec.Len())
				}
				if !r.Pass && r.Cex == nil {
					t.Errorf("%s on %s: backend %s failed without a counterexample",
						notation, model, backends[i])
				}
			}
			if sat.Stats.Backend != "sat" {
				t.Errorf("%s on %s: forced sat produced verdict on %q", notation, model, sat.Stats.Backend)
			}
		}
	}
}
