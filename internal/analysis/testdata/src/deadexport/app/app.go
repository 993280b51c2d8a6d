// Package app is the grinchvet deadexport fixture's user of lib. It
// lives outside internal/, so its own unused exports are not flagged.
package app

import "deadexp/internal/lib"

// Run uses lib across the package boundary.
func Run() int {
	var s lib.Shape = lib.Square{Side: lib.LiveConst}
	return lib.Used() + s.Area() + lib.Generic[int]{}.Get()
}

// Probe reads a clock through an anonymous interface.
func Probe() int {
	var x any = &lib.Clock{}
	if c, ok := x.(interface{ SimPS() uint64 }); ok {
		return int(c.SimPS())
	}
	return 0
}

// Key reads an entry through a generic interface.
func Key() int { return key[int](lib.Entry{}) }

func key[K any](k lib.Keyed[K]) K { return k.Key() }

// Unused is exported and unused, but not under internal/.
func Unused() {}
