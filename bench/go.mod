module superoffload/bench

go 1.24

require superoffload v0.0.0

replace superoffload => ../
