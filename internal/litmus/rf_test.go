package litmus

import (
	"testing"

	"checkfence/internal/memmodel"
)

// TestRFLitmusTable runs every classic litmus shape (SB, MP, LB, IRIW,
// CoRR, and their fenced variants) through the polynomial reads-from
// oracle on all five models and checks the verdict against both the
// hand-written ground truth and the SAT encoder's answer.
func TestRFLitmusTable(t *testing.T) {
	for _, test := range Tests() {
		for _, model := range memmodel.All() {
			gotRF, err := test.ObservableRF(model)
			if err != nil {
				t.Fatalf("%s on %s: rf: %v", test.Name, model, err)
			}
			want := test.AllowedOn[model]
			if gotRF != want {
				t.Errorf("%s on %s: rf observable=%v, ground truth %v", test.Name, model, gotRF, want)
			}
			gotSAT, err := test.Observable(model)
			if err != nil {
				t.Fatalf("%s on %s: sat: %v", test.Name, model, err)
			}
			if gotRF != gotSAT {
				t.Errorf("%s on %s: rf observable=%v, sat observable=%v", test.Name, model, gotRF, gotSAT)
			}
		}
	}
}
