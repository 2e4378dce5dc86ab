package main

import "testing"

// TestConfigFromFlags pins the flag → campaign.Config step: -quick selects
// the network-only schedule but must keep -km, -rawlogs and the app session
// lengths, and falls back to its 200-km route only when -km is unset.
func TestConfigFromFlags(t *testing.T) {
	base := runFlags{seed: 23, videoSec: 180, gamingSec: 60}
	with := func(f func(*runFlags)) runFlags {
		r := base
		f(&r)
		return r
	}
	cases := []struct {
		name  string
		flags runFlags
		km    float64
		apps  bool
		raw   string
		video float64
	}{
		{"full", base, 0, true, "", 180},
		{"full -km", with(func(r *runFlags) { r.km = 25 }), 25, true, "", 180},
		{"quick", with(func(r *runFlags) { r.quick = true }), quickKm, false, "", 180},
		{"quick -km 25", with(func(r *runFlags) { r.quick, r.km = true, 25 }), 25, false, "", 180},
		{"quick -km 400", with(func(r *runFlags) { r.quick, r.km = true, 400 }), 400, false, "", 180},
		{"quick -rawlogs", with(func(r *runFlags) { r.quick, r.rawLogDir = true, "raw" }), quickKm, false, "raw", 180},
		{"quick -video", with(func(r *runFlags) { r.quick, r.videoSec = true, 30 }), quickKm, false, "", 30},
		{"full -rawlogs", with(func(r *runFlags) { r.rawLogDir = "raw" }), 0, true, "raw", 180},
	}
	for _, tc := range cases {
		cfg := configFromFlags(tc.flags)
		if cfg.Seed != 23 || cfg.KmLimit != tc.km || cfg.EnableApps != tc.apps ||
			cfg.RawLogDir != tc.raw || cfg.VideoSec != tc.video || cfg.GamingSec != 60 {
			t.Errorf("%s: got seed %d, km %g, apps %v, rawlogs %q, video %g s, gaming %g s; want seed 23, km %g, apps %v, rawlogs %q, video %g s, gaming 60 s",
				tc.name, cfg.Seed, cfg.KmLimit, cfg.EnableApps, cfg.RawLogDir, cfg.VideoSec, cfg.GamingSec,
				tc.km, tc.apps, tc.raw, tc.video)
		}
		if want := tc.apps; cfg.EnablePassive != want || cfg.EnableStatic != want || cfg.EnableSpeedTest != want {
			t.Errorf("%s: passive/static/speed = %v/%v/%v, want all %v",
				tc.name, cfg.EnablePassive, cfg.EnableStatic, cfg.EnableSpeedTest, want)
		}
	}
}
