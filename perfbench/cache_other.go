//go:build !amd64

package main

// cacheSizes reports both sizes unknown off amd64.
func cacheSizes() (l2, l3 uint64) { return 0, 0 }
