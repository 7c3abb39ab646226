package intercell

import (
	"math/rand"
	"reflect"

	"mobilstm/internal/rng"
)

// quickSeed adapts the deterministic RNG to testing/quick.
func quickSeed(r *rng.RNG) func([]reflect.Value, *rand.Rand) {
	return func(args []reflect.Value, _ *rand.Rand) {
		args[0] = reflect.ValueOf(r.Uint64())
	}
}
