module toorjah/bench

go 1.23

require toorjah v0.0.0

replace toorjah => ../
