package main

import "testing"

// The example runs to completion: any failure inside it ends the test
// binary through log.Fatal.
func TestExampleRuns(t *testing.T) { main() }
