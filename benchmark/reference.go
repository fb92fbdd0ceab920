package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"
)

// referenceJSON pins the solve and sweep outputs of chosen seeds. An op
// of a pinned seed whose values drift from these by more than
// referenceTol counts as failed.
//
//go:embed testdata/reference.json
var referenceJSON []byte

const referenceTol = 1e-9

// referenceFile maps workload -> seed -> values.
type referenceFile map[string]map[string][]float64

// referenceFor returns the pinned values of a workload at a seed, or nil
// when that seed is not pinned.
func referenceFor(workload string, seed uint64) ([]float64, error) {
	var ref referenceFile
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("testdata/reference.json: %w", err)
	}
	return ref[workload][strconv.FormatUint(seed, 10)], nil
}

// checkReference compares values with pinned ones (nil pins nothing).
func checkReference(workload string, got, want []float64) error {
	if want == nil {
		return nil
	}
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d values, reference pins %d", workload, len(got), len(want))
	}
	for i := range got {
		if relDiff(got[i], want[i]) > referenceTol {
			return fmt.Errorf("%s: value %d is %.17g, reference pins %.17g", workload, i, got[i], want[i])
		}
	}
	return nil
}
