package main

import "testing"

// TestHostDiscovery runs the example, so it cannot rot: any error it meets
// exits the test binary non-zero through log.Fatal. How many hosts and hits
// it finds depends on its sleeps, so the test checks nothing it prints.
func TestHostDiscovery(t *testing.T) {
	main()
}
