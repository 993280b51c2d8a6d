// Package lib is the grinchvet deadexport fixture's internal package:
// every exported symbol here is either used by package app (live),
// exempt, or flagged.
package lib

import "fmt"

// Used is called from package app.
func Used() int { return 1 }

func Unused() int { return 2 } // want "deadexport: exported func Unused is used by no non-test code"

// TestOnly is called only from lib_test.go, which the loader skips.
func TestOnly() int { return 3 } // want "exported func TestOnly"

// Recursive calls only itself.
func Recursive(n int) int { // want "exported func Recursive"
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

var DeadVar = 4 // want "exported var DeadVar"

const (
	LiveConst = 5
	DeadConst = 6 // want "exported const DeadConst"
)

// DeadType is named nowhere but in its own method receivers.
type DeadType struct{} // want "exported type DeadType"

func (DeadType) Method() {} // want "exported method DeadType.Method"

//grinchvet:ignore deadexport fixture: kept on purpose
func Ignored() int { return 7 }

// Shape is a named interface package app calls through.
type Shape interface{ Area() int }

// Square is built by package app and used as a Shape.
type Square struct{ Side int }

// Area satisfies Shape: called through the interface, never by name.
func (s Square) Area() int { return s.Side * s.Side }

// Perimeter satisfies nothing and nobody calls it.
func (s Square) Perimeter() int { return 4 * s.Side } // want "exported method Square.Perimeter"

// Clock is probed by package app through an anonymous interface.
type Clock struct{}

// SimPS satisfies app's type assertion interface{ SimPS() uint64 }.
func (*Clock) SimPS() uint64 { return 8 }

// String satisfies fmt.Stringer, which the stub importer hides.
func (*Clock) String() string { return fmt.Sprint("clock") }

// Ticks satisfies nothing.
func (*Clock) Ticks() uint64 { return 9 } // want "exported method Clock.Ticks"

// Generic is a generic type package app instantiates.
type Generic[T any] struct{ v T }

// Get is called on an instantiation, which names the generic method.
func (g Generic[T]) Get() T { return g.v }

// Put is never called.
func (g *Generic[T]) Put(v T) { g.v = v } // want "exported method Generic.Put"

// Keyed is a generic interface package app calls through.
type Keyed[K any] interface{ Key() K }

// Entry is used by package app as a Keyed[int].
type Entry struct{}

// Key satisfies Keyed[int]: the name match stands in for
// types.Implements, which cannot decide a generic interface.
func (Entry) Key() int { return 10 }
