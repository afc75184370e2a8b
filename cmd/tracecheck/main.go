// Command tracecheck structurally validates Chrome trace-event JSON files
// produced by ddbsim -trace-out or experiments -trace-out: the document
// must parse, spans on every track must nest, and cohort / commit-phase
// spans must sit under their transaction's attempt span. A file named
// *.jsonl is read back as a flat event stream instead (ddbsim -trace-out
// x.jsonl): every line must decode. CI runs it on freshly generated traces
// as a smoke test.
//
//	tracecheck trace.json [more.json events.jsonl ...]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"ddbm"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: tracecheck file.json|file.jsonl [...]")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	bad := false
	for _, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			bad = true
			continue
		}
		if strings.HasSuffix(path, ".jsonl") {
			events, err := ddbm.ReadTraceJSONL(bytes.NewReader(data))
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
				bad = true
				continue
			}
			fmt.Printf("%s: ok (%d events, %d bytes)\n", path, len(events), len(data))
			continue
		}
		if err := ddbm.CheckChromeTrace(data); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			bad = true
			continue
		}
		var doc struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		// CheckChromeTrace already proved the document parses.
		json.Unmarshal(data, &doc)
		fmt.Printf("%s: ok (%d events, %d bytes)\n", path, len(doc.TraceEvents), len(data))
	}
	if bad {
		os.Exit(1)
	}
}
