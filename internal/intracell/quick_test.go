package intracell

import (
	"math/rand"
	"reflect"

	"mobilstm/internal/rng"
)

// quickSeedVals adapts the deterministic RNG to testing/quick.
func quickSeedVals() func([]reflect.Value, *rand.Rand) {
	r := rng.New(0xdead)
	return func(args []reflect.Value, _ *rand.Rand) {
		args[0] = reflect.ValueOf(r.Uint64())
	}
}
