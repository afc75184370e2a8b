// Command tool stands in for cmd/...: harnesses measure real work, so
// wall-clock use under fixture/cmd is allowlisted and nothing here is
// flagged.
package main

import "time"

func main() {
	_ = time.Now()
}
