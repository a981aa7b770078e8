package main

import "testing"

// TestQuickstart runs the example, so it cannot rot: any error it meets
// exits the test binary non-zero through log.Fatal. How many hits arrive
// depends on its sleeps, so the test checks nothing it prints.
func TestQuickstart(t *testing.T) {
	main()
}
