package core

import (
	"encoding/json"
	"fmt"

	"snnsec/internal/dataset"
	"snnsec/internal/grid"
)

// The grid engine ships a job to its workers as a named builder plus a
// JSON spec. A Scale is fully serialisable (plain fields, and
// encoding/json round-trips float64 exactly), so it IS the spec: each
// worker, in-process or a subprocess, rebuilds the identical explore
// configuration and datasets from it, which is what makes every launcher
// and shard count produce the same bytes.

// ScaleBuilderName is the registered grid builder that interprets a
// serialised Scale.
const ScaleBuilderName = "scale"

func init() {
	grid.Register(ScaleBuilderName, func(raw json.RawMessage) (grid.Job, error) {
		var s Scale
		if err := json.Unmarshal(raw, &s); err != nil {
			return grid.Job{}, fmt.Errorf("core: decoding scale spec: %w", err)
		}
		return grid.Job{
			Config: s.GridConfig(),
			Data: func() (*dataset.Dataset, *dataset.Dataset, error) {
				return LoadData(s.Data)
			},
		}, nil
	})
}

// GridSpec returns the grid.Spec for this scale's exploration job.
func (s Scale) GridSpec() (grid.Spec, error) {
	raw, err := json.Marshal(s)
	if err != nil {
		return grid.Spec{}, err
	}
	return grid.Spec{Builder: ScaleBuilderName, Config: raw}, nil
}
