module caltrain/bench

go 1.24

require caltrain v0.0.0

replace caltrain => ../
