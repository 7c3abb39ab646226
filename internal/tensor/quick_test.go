package tensor

import (
	"math/rand"
	"reflect"

	"mobilstm/internal/rng"
)

// quickSeed adapts our deterministic RNG to testing/quick's value
// generator: each property invocation receives a fresh uint64 seed.
func quickSeed(r *rng.RNG) func([]reflect.Value, *rand.Rand) {
	return func(args []reflect.Value, _ *rand.Rand) {
		args[0] = reflect.ValueOf(r.Uint64())
	}
}
