//go:build !unix

package harness

import "time"

// processCPU reports no CPU time where getrusage is unavailable; E18
// prints "-" in its CPU column.
func processCPU() time.Duration { return 0 }
