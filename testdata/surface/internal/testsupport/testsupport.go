// Package testsupport is imported by tests alone, so uses from tests
// count for it.
package testsupport

func Helper() int { return 1 }
