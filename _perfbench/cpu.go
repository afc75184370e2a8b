package main

import "syscall"

// processCPUNs returns the user plus system CPU time the process has used.
func processCPUNs() (int64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return ru.Utime.Nano() + ru.Stime.Nano(), nil
}
