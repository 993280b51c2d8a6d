// Package generic is a grinchvet fixture for generic receivers and
// explicit multi-argument instantiations inside a deterministic-core
// package: findings in a method on Pair[A, B] are keyed as Pair.method,
// exactly like those on Single[A] or a plain type.
package generic

import (
	"fmt"
	"time"
)

// Single has one type parameter.
type Single[A any] struct{ a A }

// Stamp reads the wall clock in a method on Single[A].
func (s Single[A]) Stamp() int64 {
	return time.Now().UnixNano() // want "Single.Stamp wallclock"
}

// Pair has two type parameters.
type Pair[A, B any] struct {
	a A
	b B
}

// Stamp reads the wall clock in a method on Pair[A, B].
func (p *Pair[A, B]) Stamp() int64 {
	return time.Now().UnixNano() // want "Pair.Stamp wallclock"
}

// Render iterates a map produced by a two-argument instantiation.
func (p *Pair[A, B]) Render(m map[string]int) {
	for k, v := range pick[string, int](m) { // want "Pair.Render maporder: iteration over map .pick\[\.\.\.\]\(\.\.\.\)."
		fmt.Println(k, v)
	}
}

func pick[K comparable, V any](m map[K]V) map[K]V { return m }
