#include "widget/widget.hh"

int
benchWidget()
{
    return Widget().perfHook();
}
