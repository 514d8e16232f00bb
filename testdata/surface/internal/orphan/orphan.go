// Package orphan is reached by no main package.
package orphan

func Unreached() {}
