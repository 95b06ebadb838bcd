#include "widget/widget.hh"

int
main()
{
    return Widget().live() + widgetCount();
}
