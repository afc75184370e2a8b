package main

import (
	"cmp"
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"reflect"
	"slices"

	"ddbm"
)

// defaultSeed is the seed the recorded fingerprints belong to.
const defaultSeed = 7

// recordedJSON holds, per workload, the fingerprint of every simulation of
// one pass at defaultSeed. Regenerate it with --record after a change that
// is meant to alter simulated results.
//
//go:embed fingerprints.json
var recordedJSON []byte

func recordedFingerprints() (map[string][]string, error) {
	var m map[string][]string
	if err := json.Unmarshal(recordedJSON, &m); err != nil {
		return nil, fmt.Errorf("fingerprints.json: %w", err)
	}
	return m, nil
}

// observerFields are the Result fields only Config.Breakdown and
// Config.Audit fill in; every other field is shared with an unobserved run.
var observerFields = []string{"PhaseMeanMs", "PhaseP99Ms", "AbortsByCause", "AuditedTxns", "AuditViolations"}

// fingerprint hashes every non-zero Result field except Config and the
// named ones: floats by their exact bits, maps in sorted-key order. Zero
// fields are left out, so a field a later change adds that these runs
// leave zero does not alter the fingerprint. Event counts are not part of
// Result, so a kernel that reaches the same results with fewer events
// keeps its fingerprint.
func fingerprint(r *ddbm.Result, skip ...string) string {
	h := sha256.New()
	v := reflect.ValueOf(r).Elem()
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if name == "Config" || slices.Contains(skip, name) || v.Field(i).IsZero() {
			continue
		}
		hashString(h, name)
		hashValue(h, v.Field(i))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func hashString(h hash.Hash, s string) {
	hashUint(h, uint64(len(s)))
	h.Write([]byte(s))
}

func hashUint(h hash.Hash, x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	h.Write(b[:])
}

func hashValue(h hash.Hash, v reflect.Value) {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		hashUint(h, math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		hashUint(h, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		hashUint(h, v.Uint())
	case reflect.Bool:
		if v.Bool() {
			hashUint(h, 1)
		} else {
			hashUint(h, 0)
		}
	case reflect.String:
		hashString(h, v.String())
	case reflect.Slice:
		hashUint(h, uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			hashValue(h, v.Index(i))
		}
	case reflect.Map:
		keys := v.MapKeys()
		slices.SortFunc(keys, func(a, b reflect.Value) int { return cmp.Compare(a.String(), b.String()) })
		hashUint(h, uint64(len(keys)))
		for _, k := range keys {
			hashString(h, k.String())
			hashValue(h, v.MapIndex(k))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			hashValue(h, v.Field(i))
		}
	default:
		panic(fmt.Sprintf("fingerprint: unsupported kind %v", v.Kind()))
	}
}

// collapsed reports whether a run under fault injection committed fewer
// transactions than it has terminals; a healthy measured window commits
// each terminal's transaction many times over. It is not a failure. On
// this machine every transaction has a cohort at every node, so a crash
// aborts every transaction in flight; they all wait the same restart
// delay (one running-average response time, which outages inflate) and
// restart together, and DESIGN.md documents that feedback loop as a
// model dynamic, not a bug. Such a schedule commits far less per host
// second than its neighbours, so its seed's per-commit figures are
// outliers, and the run says so.
func collapsed(r *ddbm.Result) bool {
	return r.Config.Faults.Enabled && r.Commits < int64(r.Config.NumTerminals)
}

// checkResult applies the invariants that hold at every seed.
func checkResult(r *ddbm.Result) error {
	if r.AbortsByCause != nil {
		var sum int64
		for _, n := range r.AbortsByCause {
			sum += n
		}
		if sum != r.Aborts {
			return fmt.Errorf("abort causes sum to %d, want Aborts = %d", sum, r.Aborts)
		}
	}
	if r.PhaseMeanMs != nil {
		var sum float64
		for _, phase := range ddbm.PhaseNames() {
			sum += r.PhaseMeanMs[phase]
		}
		if math.Abs(sum-r.MeanResponseMs) > 1e-9 {
			return fmt.Errorf("phase means sum to %.12f ms, want MeanResponseMs = %.12f", sum, r.MeanResponseMs)
		}
	}
	if r.Config.Audit {
		if r.AuditedTxns == 0 {
			return fmt.Errorf("audit checked no transactions")
		}
		if len(r.AuditViolations) > 0 {
			return fmt.Errorf("audit found %d violations, first: %s", len(r.AuditViolations), r.AuditViolations[0])
		}
	}
	return nil
}
